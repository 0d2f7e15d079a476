"""Word-level bit-parallel engine for the hiding-cipher family.

:mod:`repro.core.engine` walks the message one bit at a time — faithful
to the paper's pseudocode, but far below what the algorithm allows in
software, exactly as the paper's serial reference was far below its FPGA
core.  This module is the software analogue of that hardware speedup: a
second, *bit-identical* implementation of the embed/extract engine that
operates on packed integers.

It takes the paper's own route (DESIGN.md section 8): the serial,
key-dependent work is moved off the per-vector path into tables built
ahead of the data, and each window is replaced in one word operation.

* **LFSR orbit table** — for a maximal register of at most 16 bits the
  hiding vectors of a packet are a slice of one precomputed orbit of
  :meth:`~repro.util.lfsr.Lfsr.next_word`
  (:func:`repro.util.lfsr.lfsr_orbit`), read through a
  :class:`memoryview`; wider or non-primitive registers fall back to
  :class:`~repro.util.lfsr.LeapLfsr` blocks.
* **Shared window tables** — a vector's window (its offset, width,
  masks and data-scramble word) depends only on the sorted key pair and
  the at most ``key_bits``-wide scramble slice of the vector, so it is
  one lookup in a small table shared by every key holding that pair
  (:func:`_window_table`; 36 sorted pairs at width 16).
* **Packed messages** — message bits move through a 64-bit accumulator
  (LSB-first, the order of :func:`repro.util.bits.bytes_to_bits`), so a
  window is one shift-and-mask and no operation touches the whole
  message.

Equivalence argument: the per-vector state of both engines is
``(pair index, vector source state, message cursor, frame_left)``.  Both
consume one vector per iteration from the same source sequence, compute
the same window (the table holds the reference window policy evaluated
at every scramble-slice value), and consume the same ``budget =
min(window, frame_left, remaining)`` bits; replacing the reference's
per-bit read-XOR-write loop with one masked word XOR is the identity
``(chunk ^ scramble) & m == XOR of the per-bit scrambles``.  The
differential suite (``tests/core/test_fastpath_equiv.py``) pins the two
engines together over thousands of randomised cases.

Engine selection goes through the registry (:mod:`repro.core.engines`,
name ``"fast"``).  Both engines produce byte-identical wire packets, so
the choice is purely local — peers never need to agree on it.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import chain, cycle, repeat

from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import VectorParams
from repro.obs import core as _obs
from repro.util.bits import bits_to_int, check_uint, mask
from repro.util.lfsr import ORBIT_MAX_WIDTH, LeapLfsr, Lfsr, lfsr_orbit

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "HHEA",
    "MHHEA",
    "check_engine",
    "FastSchedule",
    "schedule_for",
    "BatchCodec",
]

#: The two built-in engine implementations.  Third-party backends are
#: added through :func:`repro.core.engines.register_engine`; use
#: :func:`repro.core.engines.registered_engines` for the live list.
ENGINES = ("reference", "fast")

#: Library-wide default; the CLI defaults to ``"fast"`` instead.
DEFAULT_ENGINE = "reference"

#: Algorithm names accepted by :func:`schedule_for`.
MHHEA = "mhhea"
HHEA = "hhea"

#: Words per :meth:`LeapLfsr.words` block after the first, for registers
#: without an orbit table.
_LEAP_BLOCK = 64

#: Unsigned :mod:`array` typecodes; an array of one of these whose items
#: are exactly ``width`` bits wide can only hold valid vectors.
_UNSIGNED_CODES = frozenset("BHILQ")


def check_engine(engine: str) -> str:
    """Validate an engine selector against the registry; returns it unchanged.

    Kept as the historical core-layer validation hook; since the engine
    registry (:mod:`repro.core.engines`) took over selection, this is a
    thin delegate that raises
    :class:`~repro.core.errors.UnknownEngineError` (a
    :class:`ValueError` subclass, so pre-registry handlers keep
    working) naming the registered engines.
    """
    from repro.core import engines as _engines

    if isinstance(engine, _engines.Engine):
        return engine.name
    return _engines.check_engine_name(engine)


def _check_frame_bits(frame_bits: int | None) -> None:
    if frame_bits is not None and frame_bits <= 0:
        raise ValueError(f"frame_bits must be positive or None, got {frame_bits}")


@lru_cache(maxsize=None)
def _window_table(k1: int, k2: int, algorithm: str, params: VectorParams
                  ) -> tuple[int, int, tuple[tuple[int, int, int, int, int], ...]]:
    """The windows of one sorted key pair, for every scramble-slice value.

    Returns ``(shift, slice_mask, entries)``: a vector's window is
    ``entries[(vector >> shift) & slice_mask]``, an entry being ``(kn1,
    budget, clear, window, scramble)`` — the window's low bit and width,
    the vector mask that clears it, the mask that selects it, and the
    data-scramble bits already shifted into place.

    MHHEA displaces the window by the vector's scramble slice
    ``V[k2+half .. k1+half]``; only its low ``key_bits`` bits survive
    the ``mod half`` reduction, so a pair has at most ``half`` windows.
    The scramble bits ``K1[q mod key_bits]`` restart at ``q = 0`` in
    every window, so one tiled word serves them all.  HHEA's window is
    the pair itself.  Nothing here depends on the rest of the key, so
    every key holding the pair shares the table.
    """
    half = params.half
    span = k2 - k1
    if algorithm == MHHEA:
        shift = k1 + params.scramble_low
        slice_mask = mask(min(span + 1, params.key_bits))
        scramble = 0
        for q in range(params.max_window):
            scramble |= ((k1 >> (q % params.key_bits)) & 1) << q
    else:
        shift = slice_mask = scramble = 0
    full = mask(params.width)
    entries = []
    for value in range(slice_mask + 1):
        kn1, kn2 = k1, k2
        if algorithm == MHHEA:
            kn1 = value ^ k1
            kn2 = kn1 + span
            if kn2 >= half:
                kn1, kn2 = kn2 - half, kn1
        budget = kn2 - kn1 + 1
        window = mask(budget) << kn1
        entries.append((kn1, budget, full ^ window, window,
                        (scramble << kn1) & window))
    return shift, slice_mask, tuple(entries)


def _leap_blocks(leap: LeapLfsr, first: int) -> Iterator[list[int]]:
    yield leap.words(first)
    while True:
        yield leap.words(_LEAP_BLOCK)


def _hiding_words(source, width: int, n_bits: int
                  ) -> tuple[Iterator[int], bool]:
    """The hiding vectors ``source`` will emit, and whether it is an Lfsr.

    For a plain :class:`~repro.util.lfsr.Lfsr` no wider than the engine
    (wider registers must go through the checked path so they fail
    exactly like the reference engine) the words are read ahead from a
    table: a slice of the register's orbit, or :class:`LeapLfsr` blocks
    when it has none.  The first block is ``ceil(n_bits / max_window)``
    words, the fewest a message can use.  The caller writes the last
    word it used back into ``source.state`` — ``next_word`` leaves the
    register equal to the word it returns — so the source ends exactly
    where the reference engine would leave it.  Any other source is
    consulted one ``next_word()`` at a time, range-checked like the
    reference engine does.
    """
    if source.__class__ is Lfsr and source.width <= width:
        state = source.state
        tables = None
        if source.width <= ORBIT_MAX_WIDTH and 0 < state <= mask(source.width):
            tables = lfsr_orbit(source.width, source.taps)
        if tables is not None:
            orbit, position = tables
            # repeat(orbit), not cycle(orbit): cycle keeps a copy of
            # every word it yields, a 65535-int list once a read wraps.
            return chain(orbit[position[state] + 1:],
                         chain.from_iterable(repeat(orbit))), True
        leap = LeapLfsr.from_lfsr(source)
        return chain.from_iterable(
            _leap_blocks(leap, -(-n_bits // (width // 2)))), True
    next_word = source.next_word
    return (check_uint(next_word(), width, "hiding vector")
            for _ in repeat(None)), False


def _checked_vectors(vectors: Iterator, width: int) -> Iterator[int]:
    """Pass ciphertext vectors through, failing like the reference engine."""
    top = mask(width)
    for vector in vectors:
        if vector.__class__ is not int or not 0 <= vector <= top:
            check_uint(vector, width, "ciphertext vector")
        yield vector


class FastSchedule:
    """A key schedule compiled for word-level embedding/extraction.

    Built once per (key, algorithm, params) by :func:`schedule_for` (and
    cached there), then reused across every packet — this is what makes
    :class:`BatchCodec` cheap.  The schedule itself is one reference per
    key pair to a shared :func:`_window_table`.  Messages travel as
    packed integers: bit ``m`` of the stream is bit ``m`` of the
    integer.
    """

    __slots__ = ("params", "width", "_progs", "__weakref__")

    def __init__(self, key: Key, algorithm: str, params: VectorParams):
        if algorithm not in (MHHEA, HHEA):
            raise ValueError(
                f"algorithm must be {MHHEA!r} or {HHEA!r}, got {algorithm!r}"
            )
        self.params = params
        self.width = params.width
        progs = []
        for pair in key.pairs:
            s = pair.sorted()
            progs.append(_window_table(s.k1, s.k2, algorithm, params))
        self._progs = tuple(progs)

    # -- packed-integer core ----------------------------------------------

    def embed_words(self, message: int, n_bits: int, source,
                    frame_bits: int | None = None) -> list[int]:
        """Embed the low ``n_bits`` of packed ``message`` into fresh vectors."""
        if message < 0 or message >> max(n_bits, 0):
            raise ValueError(
                f"message has bits set beyond the declared {n_bits}"
            )
        return self._embed_buffer(message.to_bytes((n_bits + 7) // 8, "little"),
                                  n_bits, source, frame_bits)

    def _embed_buffer(self, buf: bytes, n_bits: int, source,
                      frame_bits: int | None) -> list[int]:
        """The embed loop over an LSB-first byte buffer.

        ``left`` counts the bits of the current frame (the whole message
        when unframed) and ``after`` those beyond it, so a window that
        fits below ``left`` takes the table entry as it is; only the
        window that ends a frame or the message is clamped.  The
        accumulator is refilled 56 bits at a time, so it never holds
        more than a couple of machine words.
        """
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        _check_frame_bits(frame_bits)
        vectors: list[int] = []
        if n_bits == 0:
            return vectors
        words, is_lfsr = _hiding_words(source, self.width, n_bits)
        append = vectors.append
        from_bytes = int.from_bytes
        frame = frame_bits or n_bits
        left = min(frame, n_bits)
        after = n_bits - left
        acc = acc_bits = pos = 0
        for (shift, slice_mask, table), vector in zip(cycle(self._progs), words):
            kn1, budget, clear, window, scramble = table[(vector >> shift)
                                                         & slice_mask]
            if acc_bits < budget:
                acc |= from_bytes(buf[pos : pos + 7], "little") << acc_bits
                pos += 7
                acc_bits += 56
            if budget < left:
                append((vector & clear) | (((acc << kn1) & window) ^ scramble))
                acc >>= budget
                acc_bits -= budget
                left -= budget
                continue
            window = ((1 << left) - 1) << kn1
            append((vector & ~window) | (((acc << kn1) ^ scramble) & window))
            acc >>= left
            acc_bits -= left
            if not after:
                break
            left = min(frame, after)
            after -= left
        if is_lfsr:
            source.state = vector
        return vectors

    def extract_words(self, vectors: Sequence[int], n_bits: int,
                      strict: bool = True,
                      frame_bits: int | None = None) -> int:
        """Recover ``n_bits`` message bits as one packed integer."""
        return int.from_bytes(
            self._extract_buffer(vectors, n_bits, strict, frame_bits), "little"
        )

    def _extract_buffer(self, vectors: Sequence[int], n_bits: int,
                        strict: bool, frame_bits: int | None) -> bytearray:
        """The extract loop; returns the LSB-first byte buffer.

        The mirror image of :meth:`_embed_buffer`: recovered windows
        accumulate in a small integer flushed to the output 64 bits at a
        time.  Vectors are range-checked as they are used, unless
        ``vectors`` is an unsigned :class:`array` exactly ``width`` bits
        wide (what the packet codec hands over), which cannot hold a bad
        one.
        """
        if n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {n_bits}")
        _check_frame_bits(frame_bits)
        width = self.width
        it = iter(vectors)
        out = bytearray()
        acc = acc_bits = 0
        if n_bits:
            words = it
            if not (vectors.__class__ is array
                    and vectors.typecode in _UNSIGNED_CODES
                    and vectors.itemsize * 8 == width):
                words = _checked_vectors(it, width)
            frame = frame_bits or n_bits
            left = min(frame, n_bits)
            after = n_bits - left
            for (shift, slice_mask, table), vector in zip(cycle(self._progs),
                                                          words):
                kn1, budget, clear, window, scramble = table[(vector >> shift)
                                                             & slice_mask]
                if budget < left:
                    acc |= (((vector & window) ^ scramble) >> kn1) << acc_bits
                    acc_bits += budget
                    left -= budget
                    if acc_bits >= 64:
                        out += (acc & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                        acc >>= 64
                        acc_bits -= 64
                    continue
                window = ((1 << left) - 1) << kn1
                acc |= (((vector ^ scramble) & window) >> kn1) << acc_bits
                acc_bits += left
                if acc_bits >= 64:
                    out += (acc & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                    acc >>= 64
                    acc_bits -= 64
                if not after:
                    break
                left = min(frame, after)
                after -= left
            else:
                raise CipherFormatError(
                    f"truncated ciphertext: recovered {n_bits - left - after} "
                    f"of {n_bits} message bits"
                )
        if strict:
            extra = sum(1 for _ in it)
            if extra:
                raise CipherFormatError(
                    f"trailing ciphertext: message complete after "
                    f"{len(vectors) - extra} vectors but {len(vectors)} "
                    f"were supplied"
                )
        out += acc.to_bytes((n_bits + 7) // 8 - len(out), "little")
        return out

    # -- bit-list and bytes adapters ---------------------------------------

    def embed_bits(self, bits: Sequence[int], source,
                   frame_bits: int | None = None) -> list[int]:
        """Drop-in for the reference engine's bit-list embed interface."""
        return self.embed_words(bits_to_int(bits), len(bits), source, frame_bits)

    def extract_bits(self, vectors: Sequence[int], n_bits: int,
                     strict: bool = True,
                     frame_bits: int | None = None) -> list[int]:
        """Drop-in for the reference engine's bit-list extract interface."""
        buf = self._extract_buffer(vectors, n_bits, strict, frame_bits)
        return [(buf[k >> 3] >> (k & 7)) & 1 for k in range(n_bits)]

    def embed_bytes(self, data: bytes, source,
                    frame_bits: int | None = None) -> list[int]:
        """Embed bytes without ever materialising a per-bit list."""
        return self._embed_buffer(data, len(data) * 8, source, frame_bits)

    def extract_bytes(self, vectors: Sequence[int], n_bits: int,
                      strict: bool = True,
                      frame_bits: int | None = None) -> bytes:
        """Recover a byte string; ``n_bits`` must be a multiple of 8."""
        if n_bits >= 0 and n_bits % 8 != 0:
            raise ValueError(f"bit count {n_bits} is not a multiple of 8")
        return bytes(self._extract_buffer(vectors, n_bits, strict, frame_bits))


#: Compiled schedules, keyed weakly on the Key: a schedule (which embeds
#: key-derived material) lives exactly as long as its Key does, so the
#: session layer's rekey ratchet really retires old epoch keys instead
#: of leaving them pinned in a global LRU for the process lifetime.
_SCHEDULES: "weakref.WeakKeyDictionary[Key, dict]" = weakref.WeakKeyDictionary()


def schedule_for(key: Key, algorithm: str,
                 params: VectorParams) -> FastSchedule:
    """The compiled (and cached) schedule for one of the built-in ciphers.

    ``algorithm`` is :data:`MHHEA` or :data:`HHEA`.  Caching is what
    amortises compilation across packets: every packet of a session hits
    the same (key, algorithm, params) triple.
    """
    per_key = _SCHEDULES.get(key)
    if per_key is None:
        per_key = _SCHEDULES[key] = {}
    schedule = per_key.get((algorithm, params))
    if schedule is None:
        schedule = per_key[(algorithm, params)] = FastSchedule(key, algorithm,
                                                               params)
    return schedule


class BatchCodec:
    """Encrypt/decrypt many payloads under one compiled key schedule.

    The per-packet cost of the fast path is dominated by the cipher loop
    itself once the schedule is compiled; this wrapper pins one schedule
    (and one engine choice) for a whole batch so callers — the secure
    link, bulk file encryption, benchmarks — don't re-negotiate anything
    per packet.  Nonce discipline stays the caller's job exactly as for
    :func:`repro.core.stream.encrypt_packet`; pass distinct nonces.
    """

    def __init__(self, key: Key, algorithm: int | None = None,
                 engine: str = "fast"):
        from repro.core import engines as _engines
        from repro.core import stream  # deferred: stream imports this module

        self._stream = stream
        self.key = key
        self.algorithm = (stream.ALGORITHM_MHHEA if algorithm is None
                          else algorithm)
        if self.algorithm not in (stream.ALGORITHM_HHEA, stream.ALGORITHM_MHHEA):
            raise CipherFormatError(f"unknown algorithm id {algorithm}")
        #: Resolved engine backend; ``engine`` accepts a registry name or
        #: an :class:`repro.core.engines.Engine` instance.
        self.backend = _engines.get_engine(engine)
        self.engine = self.backend.name
        if self.engine == "fast":
            name = MHHEA if self.algorithm == stream.ALGORITHM_MHHEA else HHEA
            schedule_for(key, name, key.params)  # compile once, up front

    def encrypt_many(self, payloads: Sequence[bytes],
                     nonces: Sequence[int]) -> list[bytes]:
        """One packet per payload; ``nonces`` must pair up one-to-one."""
        packets = self._stream.encrypt_packets(payloads, self.key, nonces,
                                               algorithm=self.algorithm,
                                               engine=self.backend)
        _obs.get_registry().counter("repro_batch_payloads_total",
                                    op="encrypt").inc(len(packets))
        return packets

    def decrypt_many(self, packets: Sequence[bytes]) -> list[bytes]:
        """Decrypt a batch of packets produced under the same key."""
        payloads = self._stream.decrypt_packets(packets, self.key,
                                                engine=self.backend)
        _obs.get_registry().counter("repro_batch_payloads_total",
                                    op="decrypt").inc(len(payloads))
        return payloads
