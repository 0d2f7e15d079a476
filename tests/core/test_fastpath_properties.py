"""Engine-invariant property tests.

Three families of invariants, per the engine contract:

* round trip — ``extract(embed(m)) == m`` for any message, key, width
  and framing, on both engines through the registry's
  :class:`~repro.core.engines.Engine` objects, and on the fast engine's
  compiled schedule (:func:`repro.core.fastpath.schedule_for`);
* ciphertext length law — every vector carries at least one message bit
  and at most ``max_window``, so ``ceil(n / max_window) <= len(vectors)
  <= n``, and both engines agree on the exact count;
* pathological policies — an injected window or data policy that breaks
  the contract raises a clean :class:`CipherFormatError` before any
  corrupted vector can escape (no silent corruption).  Injected policies
  are a reference-engine feature: the fast engine only runs the two
  built-in ciphers, from precomputed window tables.
"""

import math
import os
import random

import pytest

from repro.core import engine, fastpath, hhea, mhhea
from repro.core.engines import HHEA, MHHEA, FastEngine, ReferenceEngine
from repro.core.errors import CipherFormatError
from repro.core.key import Key
from repro.core.params import PAPER_PARAMS, VectorParams
from repro.util.lfsr import Lfsr

SEED = int(os.environ.get("REPRO_TEST_SEED", "20050307"))

ENGINES = {"reference": ReferenceEngine(), "fast": FastEngine()}
CIPHERS = (HHEA, MHHEA)
MODULES = {HHEA: hhea, MHHEA: mhhea}


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("cipher", CIPHERS)
class TestRoundTrip:
    def test_extract_inverts_embed(self, engine_name, cipher):
        backend = ENGINES[engine_name]
        rng = random.Random(f"{SEED}:roundtrip:{cipher}:{engine_name}")
        for _ in range(200):
            width = rng.choice((4, 8, 16, 32))
            params = VectorParams(width)
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 200))]
            frame_bits = rng.choice((None, 16))
            vectors = backend.embed_bits(key, cipher, params, bits,
                                         Lfsr(width, seed=1), frame_bits)
            assert backend.extract_bits(key, cipher, params, vectors,
                                        len(bits),
                                        frame_bits=frame_bits) == bits


@pytest.mark.parametrize("cipher", CIPHERS)
class TestScheduleRoundTrip:
    """The compiled schedule inverts itself on bytes and packed integers."""

    def test_bytes_and_words_round_trip(self, cipher):
        rng = random.Random(f"{SEED}:schedule:{cipher}")
        for _ in range(100):
            width = rng.choice((8, 16, 32, 64))
            params = VectorParams(width)
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            schedule = fastpath.schedule_for(key, cipher, params)
            frame_bits = rng.choice((None, 16))
            data = rng.randbytes(rng.randint(0, 96))
            vectors = schedule.embed_bytes(data, Lfsr(width, seed=7),
                                           frame_bits)
            assert schedule.extract_bytes(vectors, len(data) * 8,
                                          frame_bits=frame_bits) == data
            n_bits = rng.randint(0, 300)
            message = rng.getrandbits(n_bits) if n_bits else 0
            vectors = schedule.embed_words(message, n_bits,
                                           Lfsr(width, seed=9), frame_bits)
            assert schedule.extract_words(vectors, n_bits,
                                          frame_bits=frame_bits) == message


@pytest.mark.parametrize("cipher", CIPHERS)
class TestCiphertextLengthLaw:
    def test_vector_count_bounds_and_engine_agreement(self, cipher):
        rng = random.Random(f"{SEED}:length:{cipher}")
        for _ in range(200):
            width = rng.choice((8, 16, 32))
            params = VectorParams(width)
            key = Key.generate(rng.randrange(1 << 32),
                               rng.randint(1, 16), params)
            n = rng.randint(1, 160)
            bits = [rng.randint(0, 1) for _ in range(n)]
            counts = set()
            for backend in ENGINES.values():
                vectors = backend.embed_bits(key, cipher, params, bits,
                                             Lfsr(width, seed=3))
                # Every vector carries 1..max_window message bits.
                assert math.ceil(n / params.max_window) <= len(vectors) <= n
                counts.add(len(vectors))
            assert len(counts) == 1

    def test_empty_message_is_empty_ciphertext(self, cipher):
        key = Key.generate(seed=4)
        for backend in ENGINES.values():
            assert backend.embed_bits(key, cipher, PAPER_PARAMS, [],
                                      Lfsr(16, seed=1)) == []
            assert backend.extract_bits(key, cipher, PAPER_PARAMS, [],
                                        0) == []


def window_policy_constant(low, high):
    def policy(pair, vector, params):
        return low, high
    return policy


def data_policy_constant(value):
    def policy(pair, q):
        return value
    return policy


ZERO_DATA = data_policy_constant(0)
LEGAL_WINDOW = window_policy_constant(0, 3)


class TestPathologicalPolicies:
    """Broken injected policies must fail loudly in the reference engine."""

    @pytest.mark.parametrize("low,high", [(5, 9), (-1, 2), (4, 1), (0, 8)])
    def test_illegal_window_raises_cleanly_on_embed(self, low, high):
        key = Key.generate(seed=9)
        with pytest.raises(CipherFormatError, match="illegal window"):
            engine.embed_stream([1, 0, 1], key, Lfsr(16, seed=1),
                                window_policy_constant(low, high), ZERO_DATA,
                                PAPER_PARAMS)

    @pytest.mark.parametrize("low,high", [(5, 9), (-1, 2), (4, 1)])
    def test_illegal_window_raises_cleanly_on_extract(self, low, high):
        key = Key.generate(seed=9)
        with pytest.raises(CipherFormatError, match="illegal window"):
            engine.extract_stream([0x1234], key, 3,
                                  window_policy_constant(low, high), ZERO_DATA,
                                  PAPER_PARAMS)

    @pytest.mark.parametrize("bad_bit", [2, -1, None, "1"])
    def test_non_binary_data_policy_raises_cleanly(self, bad_bit):
        key = Key.generate(seed=9)
        with pytest.raises(CipherFormatError, match="data-bit policy"):
            engine.embed_stream([1, 0, 1], key, Lfsr(16, seed=1),
                                LEGAL_WINDOW, data_policy_constant(bad_bit),
                                PAPER_PARAMS)
        with pytest.raises(CipherFormatError, match="data-bit policy"):
            engine.extract_stream([0x5555], key, 3, LEGAL_WINDOW,
                                  data_policy_constant(bad_bit), PAPER_PARAMS)

    def test_legal_injected_policies_round_trip(self):
        # Sanity: the policy plumbing itself works when the contract holds.
        key = Key.generate(seed=9)
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        data = data_policy_constant(1)  # invert every bit
        vectors = engine.embed_stream(bits, key, Lfsr(16, seed=2),
                                      LEGAL_WINDOW, data, PAPER_PARAMS)
        assert engine.extract_stream(vectors, key, len(bits), LEGAL_WINDOW,
                                     data, PAPER_PARAMS) == bits

    def test_no_silent_corruption_before_raise(self):
        # The embed must raise, not return a vector list with garbage in
        # it: a policy that misbehaves only on the second window still
        # produces *no* output.
        key = Key.generate(seed=9)
        calls = {"n": 0}

        def flaky_window(pair, vector, params):
            calls["n"] += 1
            return (0, 3) if calls["n"] == 1 else (5, 99)

        with pytest.raises(CipherFormatError):
            engine.embed_stream([1] * 10, key, Lfsr(16, seed=1),
                                flaky_window, ZERO_DATA, PAPER_PARAMS)


@pytest.mark.parametrize("cipher", CIPHERS)
class TestArgumentValidation:
    """Both engines reject the same malformed arguments."""

    def test_bad_engine_name(self, cipher):
        mod = MODULES[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="engine"):
            mod.encrypt_bits([1], key, Lfsr(16, seed=1), engine="turbo")
        with pytest.raises(ValueError, match="engine"):
            mod.decrypt_bits([0], key, 1, engine="turbo")

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_bad_frame_bits(self, cipher, engine_name):
        mod = MODULES[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="frame_bits"):
            mod.encrypt_bits([1], key, Lfsr(16, seed=1), frame_bits=0,
                             engine=engine_name)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_negative_n_bits(self, cipher, engine_name):
        mod = MODULES[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            mod.decrypt_bits([], key, -1, engine=engine_name)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_bad_message_bit(self, cipher, engine_name):
        mod = MODULES[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError):
            mod.encrypt_bits([2], key, Lfsr(16, seed=1), engine=engine_name)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_oversized_vector_rejected(self, cipher, engine_name):
        mod = MODULES[cipher]
        key = Key.generate(seed=1)
        with pytest.raises(ValueError):
            mod.decrypt_bits([1 << 16], key, 1, engine=engine_name)

    def test_trace_falls_back_to_reference(self, cipher):
        # Trace recording is a reference-engine feature; engine="fast"
        # with a trace must still produce correct (identical) output.
        from repro.core.trace import TraceRecorder

        mod = MODULES[cipher]
        key = Key.generate(seed=6)
        bits = [1, 0] * 10
        trace = TraceRecorder()
        traced = mod.encrypt_bits(bits, key, Lfsr(16, seed=4), trace=trace,
                                  engine="fast")
        plain = mod.encrypt_bits(bits, key, Lfsr(16, seed=4), engine="fast")
        assert traced == plain
        assert len(trace) == len(traced)
