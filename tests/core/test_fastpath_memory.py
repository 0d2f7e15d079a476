"""Memory bounds of the fast engine's precomputed tables.

The tables are key-independent, so their footprint must not grow with
the number of keys a process holds: the relay keeps hundreds of links
open, each with its own session keys.  These tests pin the sharing
(one window table per sorted key pair and cipher, one LFSR orbit per
register), the orbit's transient build cost, and the stdlib-only import
footprint of an encrypt/decrypt round trip.
"""

import pathlib
import subprocess
import sys
import tracemalloc

from repro.core import fastpath
from repro.core.key import Key
from repro.core.stream import decrypt_packet, encrypt_packet
from repro.util.lfsr import PRIMITIVE_TAPS, lfsr_orbit

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

#: Sorted pairs (k1 <= k2) of 3-bit keys: 8 * 9 / 2.
SORTED_PAIRS_16 = 36


def test_window_tables_are_shared_across_keys():
    fastpath._window_table.cache_clear()
    keys = [Key.generate(seed=1000 + i) for i in range(500)]
    tables = {}
    for algorithm in (fastpath.MHHEA, fastpath.HHEA):
        schedules = [fastpath.schedule_for(key, algorithm, key.params)
                     for key in keys]
        tables[algorithm] = {id(t) for s in schedules for t in s._progs}
        assert len(tables[algorithm]) <= SORTED_PAIRS_16
    assert fastpath._window_table.cache_info().currsize <= 2 * SORTED_PAIRS_16
    assert not tables[fastpath.MHHEA] & tables[fastpath.HHEA]


def test_orbit_is_built_once_for_many_keys():
    lfsr_orbit.cache_clear()
    for i in range(40):
        key = Key.generate(seed=2000 + i)
        packet = encrypt_packet(b"x" * 64, key, nonce=0x1000 + i,
                                engine="fast")
        assert decrypt_packet(packet, key, engine="fast") == b"x" * 64
    info = lfsr_orbit.cache_info()
    assert info.misses == 1
    assert info.currsize == 1


def test_orbit_build_has_no_full_length_list():
    # A 65535-int list alone is ~2.3 MiB; the two tables are 256 KiB.
    tracemalloc.start()
    try:
        tables = lfsr_orbit.__wrapped__(16, PRIMITIVE_TAPS[16])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables is not None
    assert peak < 1 << 20


def test_round_trip_does_not_import_numpy():
    code = (
        "import sys\n"
        "import repro\n"
        "key = repro.Key.generate(seed=5)\n"
        "codec = repro.open_codec(key, engine='fast')\n"
        "payload = bytes(range(256)) * 2\n"
        "assert codec.decrypt(codec.encrypt(payload)) == payload\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
