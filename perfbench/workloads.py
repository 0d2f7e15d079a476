"""The three benchmark workloads, driven through the public facade.

Each workload builds its system in :meth:`setup` (timed by the caller,
repeated), then :meth:`run` drives it for a fixed number of seconds and
returns a :class:`Phase`; :meth:`verify` runs the checks that are too
slow or too global for the timed loop.  Inputs come only from the
``rng`` the caller seeds; keys are fixed per workload, because MHHEA
work per byte depends on the key and a seeded key would measure the key.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import random
from dataclasses import dataclass, field

import repro
from repro.core.key import Key
from repro.core.stream import PacketHeader, split_packets
from repro.relay import MemoryRelayHub

from host import clock
from stats import percentile

#: One fixed key for every workload (seed and pair count of the key the
#: paper-era tests use); the workload seed never reaches it.
KEY_SEED = 2005
KEY_PAIRS = 16
ENGINE = "fast"


def fixed_key() -> Key:
    """A fresh :class:`Key` object with the fixed schedule."""
    return Key.generate(seed=KEY_SEED, n_pairs=KEY_PAIRS)


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    ops: int = 0
    failed: int = 0
    #: Per-operation latency samples, seconds, and the ``(start, end)``
    #: interval each one covers on :func:`host.clock`.
    latencies: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    #: Plaintext bytes the operations completed, and the seconds they
    #: took (the goodput ratio).
    payload_bytes: int = 0
    elapsed: float = 0.0
    #: Seconds spent inside operations, and the work units they did
    #: (the tracing-overhead base).
    busy: float = 0.0
    work: float = 0.0
    #: Seconds the open-loop generator waited for the next due time.
    idle: float = 0.0
    #: Open-loop generator lateness samples, seconds.
    lags: list = field(default_factory=list)
    #: Workload-specific named figures (printed, not gated).
    details: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: (packet, plaintext) pairs re-checked against the reference engine.
    oracle: list = field(default_factory=list)

    def sample(self, start: float, end: float, latency=None) -> None:
        """Record one operation over ``[start, end]``; its latency is
        ``end - start`` unless given."""
        self.latencies.append(end - start if latency is None else latency)
        self.intervals.append((start, end))

    def fail(self, message: str) -> None:
        """Count one failed operation and keep the first few reasons."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


@contextlib.contextmanager
def _root(recorder):
    """The per-operation root span, when tracing."""
    if recorder is None:
        yield
        return
    recorder.begin_root("op")
    try:
        yield
    finally:
        recorder.end_root()


# -- bulk_blob -------------------------------------------------------------

class BulkBlob:
    """Closed loop, one caller: ``seal_blob`` then ``open_blob``.

    Payloads are log-uniform in 16 KiB – 1 MiB, so most blobs span
    several 64 KiB chunks.  Sizes are drawn stratified: every
    :data:`STRATA` payloads hold one from each equal slice of the log
    range, in seeded order, so runs on different seeds see nearly the
    same mix and differ by where in each slice a size falls.  The first
    payload of every phase is exactly 1 MiB, so the peak-memory figure
    sees the same largest blob on every seed.  Each blob starts its
    chunk nonces past the previous blob's, as the nonce discipline asks,
    so cost per byte averages over many LFSR windows instead of
    replaying one nonce's.  The engine does
    nearly all the work here, so cipher-kernel changes show, and
    per-packet layers barely run.
    """

    name = "bulk_blob"
    #: A closed loop's goodput is set by the program's speed; an open
    #: loop's by its offered rate (see ``run.measure``).
    OPEN_LOOP = False
    MIN_SIZE = 16 * 1024
    MAX_SIZE = 1024 * 1024
    #: Latency samples are normalised to this much plaintext, because a
    #: blob's time scales with its size.
    LATENCY_UNIT = 64 * 1024
    STRATA = 8
    SETUPS = 40

    def __init__(self):
        self.codec = None

    def setup(self) -> None:
        self.close()
        self.codec = repro.open_codec(fixed_key(), engine=ENGINE)
        probe = b"bulk_blob warm-up" * 64
        if self.codec.open_blob(self.codec.seal_blob(probe)) != probe:
            raise RuntimeError("bulk_blob warm-up round trip failed")

    @property
    def engine_name(self) -> str:
        return self.codec.engine_name

    def _sizes(self, rng):
        """The 1 MiB anchor, then stratified log-uniform sizes."""
        yield self.MAX_SIZE
        low, high = math.log(self.MIN_SIZE), math.log(self.MAX_SIZE)
        width = (high - low) / self.STRATA
        while True:
            strata = list(range(self.STRATA))
            rng.shuffle(strata)
            for stratum in strata:
                log_size = low + (stratum + rng.random()) * width
                yield int(math.exp(log_size))

    def run(self, seconds: float, rng, recorder=None) -> Phase:
        codec = self.codec
        phase = Phase()
        # Packets for the reference-engine check: one drawn from every
        # packet of the phase and one from its full-chunk packets (the
        # 1 MiB anchor guarantees some), so long inputs are always checked.
        oracle_rng = random.Random(rng.random())
        any_packet = _Reservoir(oracle_rng)
        full_packet = _Reservoir(oracle_rng)
        seal_s = open_s = 0.0
        nonce = 1
        sizes = self._sizes(rng)
        start = clock()
        while clock() - start < seconds:
            payload = rng.randbytes(next(sizes))
            error = None
            with _root(recorder):
                t0 = clock()
                try:
                    blob = codec.seal_blob(payload, nonce)
                    t1 = clock()
                    plain = codec.open_blob(blob)
                except Exception as exc:  # counted, never fatal
                    blob = plain = None
                    error = exc
                t2 = clock()
            phase.ops += 1
            # Headroom for one skipped all-zero LFSR seed per blob.
            nonce += len(payload) // codec.chunk_size + 2
            if plain != payload:
                phase.fail(f"blob of {len(payload)} B did not round-trip"
                           + (f": {error!r}" if plain is None else ""))
                continue
            seal_s += t1 - t0
            open_s += t2 - t1
            phase.busy += t2 - t0
            phase.work += len(payload)
            phase.payload_bytes += len(payload)
            phase.sample(t0, t2,
                         (t2 - t0) * self.LATENCY_UNIT / len(payload))
            size = codec.chunk_size
            for i, packet in enumerate(split_packets(blob)):
                end = (i + 1) * size

                def pick():
                    return packet, payload[end - size:end]

                any_packet.offer(pick)
                if end <= len(payload):
                    full_packet.offer(pick)
        phase.elapsed = seal_s + open_s
        phase.details.update({
            "seal_mb_s": phase.payload_bytes / seal_s / 1e6 if seal_s else 0.0,
            "open_mb_s": phase.payload_bytes / open_s / 1e6 if open_s else 0.0,
        })
        phase.oracle = [r.item for r in (full_packet, any_packet)
                        if r.item is not None]
        return phase

    def verify(self, phase: Phase) -> None:
        """Sampled packets must be byte-identical to the reference
        engine's (the oracle)."""
        reference = repro.open_codec(fixed_key(), engine="reference")
        for packet, chunk in phase.oracle:
            nonce = PacketHeader.unpack(packet).nonce
            phase.ops += 1
            if reference.encrypt(chunk, nonce=nonce) != packet:
                phase.fail(f"{len(chunk)} B packet differs from the "
                           f"reference engine's")

    def close(self) -> None:
        if self.codec is not None:
            self.codec.close()
            self.codec = None


class _Reservoir:
    """One item drawn uniformly from a stream of offers."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = 0
        self.item = None

    def offer(self, make) -> None:
        """Count one candidate; ``make()`` builds it, at once, only if
        it is drawn."""
        self.seen += 1
        if self.rng.randrange(self.seen) == 0:
            self.item = make()


# -- small_echo ------------------------------------------------------------

class SmallEcho:
    """Closed loop, one client, one request outstanding, over asyncio
    TCP loopback (``repro.serve`` / ``repro.connect``), 16–512 B.

    Per-packet layers (header, CRC, Session, framing, LinkProtocol,
    transport) take about half the time at these sizes, so a change
    that adds per-call overhead shows here.  The session id is fixed
    so the per-epoch keys, which the id feeds, are the same every run.
    """

    name = "small_echo"
    OPEN_LOOP = False
    SETUPS = 40
    MIN_SIZE = 16
    MAX_SIZE = 512
    SESSION_ID = b"perfbnch"

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.stack = None
        self.client = None
        self.engine_name = None

    def setup(self) -> None:
        self.close_link()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        codec = repro.open_codec(fixed_key(), engine=ENGINE)
        self.engine_name = codec.engine_name
        stack = contextlib.AsyncExitStack()
        try:
            server = await stack.enter_async_context(
                repro.serve(codec, port=0))
            self.client = await stack.enter_async_context(
                repro.connect(codec, port=server.port,
                              session_id=self.SESSION_ID))
            if await self.client.request(b"warm-up") != b"warm-up":
                raise RuntimeError("small_echo warm-up echo failed")
        except BaseException:
            await stack.aclose()
            raise
        self.stack = stack

    def run(self, seconds: float, rng, recorder=None) -> Phase:
        return self.loop.run_until_complete(
            self._run(seconds, rng, recorder))

    async def _run(self, seconds: float, rng, recorder) -> Phase:
        client = self.client
        phase = Phase()
        start = clock()
        while clock() - start < seconds:
            payload = rng.randbytes(rng.randint(self.MIN_SIZE, self.MAX_SIZE))
            with _root(recorder):
                t0 = clock()
                try:
                    reply = await client.request(payload)
                except Exception as exc:  # the link is gone: stop here
                    reply = exc
                t1 = clock()
            phase.ops += 1
            if reply != payload:
                phase.fail(f"echo of {len(payload)} B came back wrong: "
                           f"{reply!r:.80}")
                if isinstance(reply, Exception):
                    break
                continue
            phase.sample(t0, t1)
            phase.busy += t1 - t0
            phase.work += 1
            phase.payload_bytes += len(payload)
        phase.elapsed = clock() - start
        metrics = client.session.metrics
        phase.details.update({"tx_rekeys": metrics.tx.rekeys,
                              "rx_rekeys": metrics.rx.rekeys})
        return phase

    def verify(self, phase: Phase) -> None:
        """Every reply was checked in the loop."""

    def close_link(self) -> None:
        if self.stack is not None:
            self.loop.run_until_complete(self.stack.aclose())
            self.stack = self.client = None

    def close(self) -> None:
        self.close_link()
        self.loop.close()


# -- relay_fanout ------------------------------------------------------------

class RelayFanout:
    """Open loop through the relay hub (``repro.relay.MemoryRelayHub``).

    Set-up opens ~256 ticket-resumed links across two tenants in
    channels of 2–8 members (a fixed layout).  The run sends Poisson
    arrivals of 32–256 B payloads from random members at
    :data:`RATE` per second, and times each payload from its due time
    until its last receiver holds it.  This is the only workload that
    crosses relay routing, enqueueing, per-receiver re-encryption and,
    during set-up, key-exchange resumption.

    Ticket masters, handshake randoms, session ids and the relay's
    ticket-vault nonces all come from generators seeded with
    :data:`KEY_SEED`, so every run opens its links with the same keys:
    each link's MHHEA key, and so its work per byte, follows from them.
    The library draws the last three from :func:`os.urandom`, which
    set-up therefore feeds from the seeded generator while it runs.
    """

    name = "relay_fanout"
    OPEN_LOOP = True
    SETUPS = 9
    TENANTS = ("alpha", "beta")
    CHANNEL_SIZES = (2, 3, 4, 5, 6, 7, 8)
    LINKS = 256
    #: Offered payloads per second: about a fifth of the closed-loop
    #: routing capacity measured on a 2-CPU host (~200 payloads/s).  At
    #: higher utilisation queueing dominates the tail, and the tail then
    #: tracks the host's speed swings more than the code.
    RATE = 40.0
    MIN_SIZE = 32
    MAX_SIZE = 256

    def __init__(self):
        self.hub = None
        self.groups: list = []

    @property
    def engine_name(self) -> str:
        return self.hub.core.config.engine

    def setup(self) -> None:
        self.close()
        with _seeded_urandom(KEY_SEED + 1):
            self._open_links()

    def _open_links(self) -> None:
        masters = random.Random(KEY_SEED)
        hub = MemoryRelayHub()
        groups = []
        members = 0
        while members < self.LINKS:
            index = len(groups)
            size = self.CHANNEL_SIZES[index % len(self.CHANNEL_SIZES)]
            tenant = self.TENANTS[index % len(self.TENANTS)]
            channel = b"bench-%d" % index
            group = []
            for _ in range(size):
                ticket = hub.mint_ticket(tenant, master=masters.randbytes(32))
                client = hub.connect(tenant, channel=channel, ticket=ticket)
                if client is None or not client.open \
                        or client.ack != b"+" + channel:
                    raise RuntimeError(f"relay link in {channel!r} did not "
                                       f"open and join")
                group.append(client)
            groups.append(group)
            members += size
        self.hub, self.groups = hub, groups

    def run(self, seconds: float, rng, recorder=None) -> Phase:
        phase = Phase()
        senders = [(client, group) for group in self.groups
                   for client in group]
        expected = {id(client): len(client.received)
                    for client, _ in senders}
        arrivals = []
        due = rng.expovariate(self.RATE)
        while due < seconds:
            client, group = rng.choice(senders)
            payload = rng.randbytes(rng.randint(self.MIN_SIZE,
                                                self.MAX_SIZE))
            arrivals.append((due, client, group, payload))
            due += rng.expovariate(self.RATE)
        receptions = 0
        start = clock()
        last_done = start
        for offset, sender, group, payload in arrivals:
            due = start + offset
            wait_from = clock()
            # Busy-wait rather than sleep: a core woken from idle runs
            # the next payload measurably slower, and by a varying amount.
            while clock() < due:
                pass
            began = clock()
            phase.idle += max(0.0, began - wait_from)
            with _root(recorder):
                try:
                    sender.send(payload)
                    receivers = [peer for peer in group if peer is not sender]
                    for peer in receivers:
                        peer.pump()
                except Exception as exc:  # counted, never fatal
                    receivers = exc
                done = clock()
            phase.ops += 1
            phase.lags.append(began - due)
            if isinstance(receivers, Exception):
                phase.fail(f"routing raised {receivers!r}")
                continue
            ok = True
            for peer in receivers:
                expected[id(peer)] += 1
                if len(peer.received) != expected[id(peer)] \
                        or peer.received[-1] != payload:
                    ok = False
                    expected[id(peer)] = len(peer.received)
            if not ok:
                phase.fail(f"a receiver of a {len(payload)} B payload did "
                           f"not get it exactly once, in order")
                continue
            receptions += len(receivers)
            phase.sample(due, done)
            phase.busy += done - began
            phase.work += 1
            phase.payload_bytes += len(payload) * len(receivers)
            last_done = done
        phase.elapsed = max(last_done - start, 1e-9)
        phase.details.update({
            "routed_per_s": receptions / phase.elapsed,
            "lag_p99_ms": percentile(phase.lags, 99.0) * 1e3,
            "backlog": _growing_backlog(phase.latencies),
            "shed": sum(self.hub.shed_by_reason().values()),
        })
        return phase

    def verify(self, phase: Phase) -> None:
        """No shed, no egress drop, every link still open."""
        shed = self.hub.shed_by_reason()
        if shed:
            phase.fail(f"relay shed or dropped: {shed}")
        closed = sum(not client.open for group in self.groups
                     for client in group)
        if closed:
            phase.fail(f"{closed} relay links closed during the run")
        if phase.details["backlog"]:
            phase.fail("backlog grew during the run: the offered rate "
                       "overloads the relay, so its latency is not reported")

    def close(self) -> None:
        if self.hub is not None:
            for group in self.groups:
                for client in group:
                    client.close()
            self.hub, self.groups = None, []


@contextlib.contextmanager
def _seeded_urandom(seed: int):
    """Serve :func:`os.urandom` from a generator seeded with ``seed``."""
    genuine = os.urandom
    os.urandom = random.Random(seed).randbytes
    try:
        yield
    finally:
        os.urandom = genuine


def _growing_backlog(latencies) -> bool:
    """True when late-run latency has risen well above early-run latency.

    An open loop that cannot keep up queues work, so each payload waits
    longer than the one before; the last quarter's median then far
    exceeds the first quarter's.  Isolated stalls move neither median.
    """
    quarter = len(latencies) // 4
    if quarter < 10:
        return False
    early = sorted(latencies[:quarter])[quarter // 2]
    late = sorted(latencies[-quarter:])[quarter // 2]
    return late > 2.0 * early + 0.010


WORKLOADS = {cls.name: cls for cls in (BulkBlob, SmallEcho, RelayFanout)}
