"""Which entry points the traced run wraps, and the per-layer metrics.

Every name is patched where its callers look it up: a function bound by
``from module import name`` is a separate binding in each importer, so
``repro.net.session.encrypt_packet`` is patched beside
``repro.core.stream.encrypt_packet``.  Methods are patched on their
class.  The engine class is whatever ``get_engine("fast")`` resolves
to, so a faster backend registered as ``fast`` is traced unchanged.
"""

from __future__ import annotations

import math

import repro
from repro.api import Codec
from repro.core import stream
from repro.kex.handshake import Handshake
from repro.link.protocol import LinkProtocol
from repro.net import framing, session
from repro.net.framing import FrameDecoder
from repro.net.session import Session
from repro.parallel.pipeline import ParallelCodec
from repro.relay.core import RelayCore
from repro.relay.events import PayloadRouted
from repro.relay.harness import MemoryRelayHub

from spans import END, NAME, START, self_times
from stats import percentile

#: Span name -> layer reported for it ("op" and "connect" are the
#: benchmark's own root spans: the transport or harness around a call).
LAYER_OF = {
    "op": "transport", "connect": "transport",
    "engine.embed": "engine.embed", "engine.extract": "engine.extract",
    "packet": "packet", "session": "session", "framing": "framing",
    "link": "link", "blob": "blob", "codec": "codec", "kex": "kex",
    "relay": "relay",
}

#: Per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("engine.embed_s", "s/op"), ("engine.extract_s", "s/op"),
    ("engine.embed_calls", "1/op"), ("engine.extract_calls", "1/op"),
    ("engine.vectors_per_byte", "1/B"),
    ("packet.self_s", "s/op"), ("packet.calls", "1/op"),
    ("session.self_s", "s/op"), ("session.packets", "1/op"),
    ("session.rekeys", "count"), ("session.batch_mean", "count"),
    ("framing.self_s", "s/op"), ("framing.frames", "1/op"),
    ("link.self_s", "s/op"), ("link.events", "1/op"),
    ("transport.self_s", "s/op"),
    ("blob.self_s", "s/op"), ("blob.chunks", "1/op"),
    ("codec.self_s", "s/op"),
    ("kex.setup_s", "s/setup"), ("kex.handshakes", "1/setup"),
    ("relay.self_s", "s/op"), ("relay.routed", "count"),
    ("relay.fanout_mean", "count"), ("relay.egress_wait_p99_ms", "ms"),
    ("relay.egress_depth_max", "count"), ("relay.shed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
)

#: trace.coverage must land in this band: layer self times (the root
#: spans included) account for the busy wall time of the traced phase,
#: less the benchmark's own bookkeeping between operations.
COVERAGE_BAND = (0.90, 1.001)


def install(recorder) -> None:
    """Patch every traced entry point into ``recorder``."""
    count, sample = recorder.count, recorder.sample
    engine_cls = type(repro.get_engine("fast"))

    def embedded(args, result, span):
        count("engine.embed_calls")
        count("engine.embed_bytes", len(args[4]))
        count("engine.embed_vectors", len(result))

    recorder.patch(engine_cls, "embed_bytes", "engine.embed", embedded)
    recorder.patch(engine_cls, "extract_bytes", "engine.extract",
                   lambda args, result, span: count("engine.extract_calls"))

    def packet_call(args, result, span):
        count("packet.calls")

    for module, names in ((stream, ("encrypt_packet", "decrypt_packet",
                                    "verify_packet")),
                          (session, ("encrypt_packet", "decrypt_packet",
                                     "_verify_parsed", "_extract_verified")),
                          (framing, ("verify_packet",))):
        for name in names:
            recorder.patch(module, name, "packet", packet_call)

    sessions = recorder.sessions

    def one_packet(args, result, span):
        sessions.add(args[0])
        count("session.packets")

    def batch(args, result, span):
        sessions.add(args[0])
        count("session.packets", len(result))
        count("session.batched", len(result))
        count("session.batches")

    recorder.patch(Session, "encrypt", "session", one_packet)
    recorder.patch(Session, "decrypt", "session", one_packet)
    recorder.patch(Session, "encrypt_batch", "session", batch)
    recorder.patch(Session, "decrypt_batch", "session", batch)

    recorder.patch(FrameDecoder, "feed", "framing",
                   lambda args, result, span: count("framing.frames",
                                                    len(result)))
    recorder.patch(LinkProtocol, "send_payload", "link")
    recorder.patch(LinkProtocol, "data_to_send", "link")
    recorder.patch(LinkProtocol, "receive_data", "link",
                   lambda args, result, span: count("link.events",
                                                    len(result)))

    def chunks(n_bytes, codec):
        count("blob.chunks", max(1, math.ceil(n_bytes / codec.chunk_size)))

    recorder.patch(ParallelCodec, "encrypt_blob", "blob",
                   lambda args, result, span: chunks(len(args[1]), args[0]))
    recorder.patch(ParallelCodec, "decrypt_blob", "blob",
                   lambda args, result, span: chunks(len(result), args[0]))
    recorder.patch(Codec, "seal_blob", "codec")
    recorder.patch(Codec, "open_blob", "codec")

    def absorbed(args, result, span):
        # A responder is done once it has checked the client's Finished:
        # one completed exchange per link.
        if args[0].done and args[0].role == "responder":
            count("kex.handshakes")

    recorder.patch(Handshake, "first_message", "kex")
    recorder.patch(Handshake, "absorb", "kex", absorbed)
    recorder.patch(MemoryRelayHub, "connect", "connect")

    # Egress wait: from the end of the sender's RelayCore.receive_data
    # that queued a payload to the start of the receiver's drain.
    queued: dict = {}

    def routed(args, result, span):
        core = args[0]
        for event in result:
            if isinstance(event, PayloadRouted):
                count("relay.routed")
                count("relay.receptions", event.receivers)
                for peer in core.router.peers(event.link_id):
                    queued.setdefault(peer, []).append(span[END])

    def drained(args, result, span):
        waiting = queued.pop(args[1], None)
        if waiting and result:
            for since in waiting:
                sample("relay.egress_wait", span[START] - since)
            sample("relay.egress_depth", len(waiting))
        elif waiting:
            queued[args[1]] = waiting

    recorder.patch(RelayCore, "receive_data", "relay", routed)
    recorder.patch(RelayCore, "data_to_send", "relay", drained)


def report(recorder, first: int, ops: int, busy_wall: float, setups: int,
           handshakes: int, overhead: float, lags, shed: int) -> dict:
    """Per-layer metrics from the spans recorded since index ``first``.

    ``busy_wall`` is the traced phase's wall time minus the load
    generator's idle waits; ``ops`` the operations it completed;
    ``setups`` how many traced set-ups preceded it, and ``handshakes``
    the key exchanges they completed.  Counters, samples and the session
    set must have been cleared when the phase began.
    """
    own = self_times(recorder.spans)
    phase: dict = {}
    setup: dict = {}
    for i, (span, seconds) in enumerate(zip(recorder.spans, own)):
        layer = LAYER_OF[span[NAME]]
        bucket = phase if i >= first else setup
        bucket[layer] = bucket.get(layer, 0.0) + seconds
    counts = recorder.counts
    samples = recorder.samples
    per_op = max(ops, 1)
    batches = counts["session.batches"]
    rekeys = sum(s.metrics.tx.rekeys + s.metrics.rx.rekeys
                 for s in recorder.sessions)
    waits = samples.get("relay.egress_wait", [])
    routed = counts["relay.routed"]
    values = {
        "engine.embed_s": phase.get("engine.embed", 0.0) / per_op,
        "engine.extract_s": phase.get("engine.extract", 0.0) / per_op,
        "engine.embed_calls": counts["engine.embed_calls"] / per_op,
        "engine.extract_calls": counts["engine.extract_calls"] / per_op,
        "engine.vectors_per_byte": (counts["engine.embed_vectors"]
                                    / max(counts["engine.embed_bytes"], 1)),
        "packet.self_s": phase.get("packet", 0.0) / per_op,
        "packet.calls": counts["packet.calls"] / per_op,
        "session.self_s": phase.get("session", 0.0) / per_op,
        "session.packets": counts["session.packets"] / per_op,
        "session.rekeys": rekeys,
        "session.batch_mean": (counts["session.batched"] / batches
                               if batches else 0.0),
        "framing.self_s": phase.get("framing", 0.0) / per_op,
        "framing.frames": counts["framing.frames"] / per_op,
        "link.self_s": phase.get("link", 0.0) / per_op,
        "link.events": counts["link.events"] / per_op,
        "transport.self_s": phase.get("transport", 0.0) / per_op,
        "blob.self_s": phase.get("blob", 0.0) / per_op,
        "blob.chunks": counts["blob.chunks"] / per_op,
        "codec.self_s": phase.get("codec", 0.0) / per_op,
        "kex.setup_s": setup.get("kex", 0.0) / max(setups, 1),
        "kex.handshakes": handshakes / max(setups, 1),
        "relay.self_s": phase.get("relay", 0.0) / per_op,
        "relay.routed": routed,
        "relay.fanout_mean": (counts["relay.receptions"] / routed
                              if routed else 0.0),
        "relay.egress_wait_p99_ms": (percentile(waits, 99.0) * 1e3
                                     if waits else 0.0),
        "relay.egress_depth_max": max(samples.get("relay.egress_depth",
                                                  [0])),
        "relay.shed": shed,
        "loadgen.lag_p99_ms": percentile(lags, 99.0) * 1e3 if lags else 0.0,
        "trace.overhead_ratio": overhead,
        "trace.coverage": sum(phase.values()) / busy_wall,
    }
    return values
