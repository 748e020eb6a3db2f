"""The incremental wire decoder: chunk boundaries must not matter.

:class:`repro.core.logger.WireDecoder` is the network-facing decode
path — the ingest server feeds it whatever chunks TCP delivers.  The
contract fuzzed here: for ANY split of a packed log (mid-entry, one
byte at a time, mid-u32-wrap), the reassembled rows are *identical* to
the one-shot :func:`decode_columns` output — same unwrap, same order —
and the entries built from them equal the :func:`iter_entries` decode,
seq numbers included.
"""

import random

import numpy as np
import pytest

from repro.core.logger import (
    ENTRY_SIZE,
    ENTRY_STRUCT,
    TYPE_POWERSTATE,
    LogColumns,
    WireDecoder,
    decode_columns,
    iter_entries,
)
from repro.errors import LoggerError
from repro.experiments.common import run_blink
from repro.units import seconds

U32 = 1 << 32


def random_chunks(raw, rng, max_chunk):
    """Split ``raw`` at random offsets (most cuts land mid-entry)."""
    offset = 0
    while offset < len(raw):
        step = rng.randint(1, max_chunk)
        yield raw[offset:offset + step]
        offset += step


def feed_chunked(raw, chunks):
    """Feed ``chunks`` to a fresh decoder; the reassembled rows, checked
    against the one-shot column decode, as entries."""
    decoder = WireDecoder()
    parts = [decoder.feed(chunk) for chunk in chunks]
    decoder.finish()
    assert decoder.pending_bytes == 0
    return entries_of(raw, parts, decoder)


def entries_of(raw, parts, decoder):
    columns = LogColumns.concat(parts) if parts else decode_columns(b"")
    assert decoder.entries_decoded == len(columns)
    assert_columns_equal(columns, raw)
    return list(columns.entries())


def assert_columns_equal(rebuilt, raw):
    """The reassembled stream matches the one-shot columnar decode."""
    oneshot = decode_columns(raw)
    for field in ("type", "res_id", "time_ns", "icount", "value"):
        column = getattr(rebuilt, field)
        assert column.dtype == getattr(oneshot, field).dtype, field
        assert np.array_equal(column, getattr(oneshot, field)), field


# -- golden experiment logs --------------------------------------------------


@pytest.fixture(scope="module")
def blink_raw():
    node, _app, _sim = run_blink(seed=3, duration_ns=seconds(8))
    return bytes(node.logger.raw_bytes())


def test_chunked_equals_oneshot_on_blink(blink_raw):
    reference = list(iter_entries(blink_raw))
    rng = random.Random(0xC0FFEE)
    for _trial in range(8):
        entries = feed_chunked(blink_raw,
                               random_chunks(blink_raw, rng, 37))
        assert entries == reference


def test_one_byte_at_a_time(blink_raw):
    entries = feed_chunked(blink_raw,
                           (blink_raw[i:i + 1]
                            for i in range(len(blink_raw))))
    assert entries == list(iter_entries(blink_raw))


def test_single_chunk_is_the_degenerate_split(blink_raw):
    assert feed_chunked(blink_raw, [blink_raw]) \
        == list(iter_entries(blink_raw))


def test_network_log_random_splits():
    """Cross-node logs (proxy binds, remote labels) through prime-sized
    chunks: entry boundaries drift through every offset mod 12."""
    from repro.apps.bounce import BounceApp
    from repro.tos.network import Network
    from repro.tos.node import NodeConfig
    from repro.units import ms

    network = Network(seed=1)
    network.add_node(NodeConfig(node_id=1, mac="csma"))
    network.add_node(NodeConfig(node_id=4, mac="csma"))
    app1 = BounceApp(peer_id=4, originate_delay_ns=ms(250))
    app4 = BounceApp(peer_id=1, originate_delay_ns=ms(650))
    network.boot_all({1: app1.start, 4: app4.start})
    network.run(seconds(3))
    for node_id in (1, 4):
        raw = bytes(network.node(node_id).logger.raw_bytes())
        reference = list(iter_entries(raw))
        for chunk_size in (7, 11, 13, 1021):
            entries = feed_chunked(
                raw, (raw[i:i + chunk_size]
                      for i in range(0, len(raw), chunk_size)))
            assert entries == reference


# -- u32 wrap state across feeds ---------------------------------------------


def pack_truth(true_values):
    """Pack (time_us, icount) truth pairs, wrapping both fields to u32."""
    raw = bytearray()
    for time_us, icount in true_values:
        raw += ENTRY_STRUCT.pack(
            TYPE_POWERSTATE, 0, time_us % U32, icount % U32, 0)
    return bytes(raw)


def test_wrap_state_carries_across_feeds():
    """Split exactly so the wrap is detected in a *later* feed than the
    entry that established the pre-wrap watermark."""
    truth = [
        (U32 - 1000, 10),
        (U32 - 1, 20),
        (U32 + 500, U32 + 5),   # both fields wrap here
        (U32 + 900, U32 + 50),
        (2 * U32 + 3, 2 * U32),  # and wrap again
    ]
    raw = pack_truth(truth)
    # Cut mid-entry *inside* the wrapping record: the decoder must hold
    # 7 bytes of the wrapped entry while remembering the old watermark.
    cut = 2 * ENTRY_SIZE + 5
    decoder = WireDecoder()
    first = decoder.feed(raw[:cut])
    assert len(first) == 2 and decoder.pending_bytes == 5
    rest = decoder.feed(raw[cut:])
    decoder.finish()
    entries = entries_of(raw, [first, rest], decoder)
    assert [(e.time_us, e.icount) for e in entries] == truth


def test_wrap_fuzz_random_splits():
    rng = random.Random(31337)
    for _trial in range(20):
        truth, time_us, icount = [], 0, 0
        for _ in range(40):
            time_us += rng.randint(0, U32 // 3)
            icount += rng.randint(0, U32 // 3)
            truth.append((time_us, icount))
        raw = pack_truth(truth)
        entries = feed_chunked(raw, random_chunks(raw, rng, 17))
        assert [(e.time_us, e.icount) for e in entries] == truth
        assert entries == list(iter_entries(raw))


# -- snapshot / restore ------------------------------------------------------


def snapshot_round_trip_at(raw, cut):
    """Feed ``raw[:cut]``, snapshot, restore into a NEW decoder, feed
    the rest — the crash/restart shape of the ingest server."""
    first = WireDecoder()
    parts = [first.feed(raw[:cut])]
    state = first.snapshot()
    # The snapshot must survive serialization (checkpoints store it).
    import json

    second = WireDecoder.from_snapshot(json.loads(json.dumps(state)))
    assert second.entries_decoded == first.entries_decoded
    assert second.pending_bytes == first.pending_bytes
    parts.append(second.feed(raw[cut:]))
    second.finish()
    return entries_of(raw, parts, second)


def test_snapshot_restore_at_every_split_across_wraps():
    """The satellite contract: a restore point at EVERY byte offset of
    a log whose time and icount both wrap u32 (including cuts inside
    the wrapping entry itself) resumes to the identical entry stream."""
    truth = [
        (U32 - 1000, 10),
        (U32 - 1, 20),
        (U32 + 500, U32 + 5),    # both fields wrap here
        (U32 + 900, U32 + 50),
        (2 * U32 + 3, 2 * U32),  # and wrap again
        (2 * U32 + 7, 3 * U32 - 1),
        (3 * U32, 3 * U32 + 2),  # time wraps alone
    ]
    raw = pack_truth(truth)
    reference = list(iter_entries(raw))
    for cut in range(len(raw) + 1):
        entries = snapshot_round_trip_at(raw, cut)
        assert entries == reference, f"diverged restoring at byte {cut}"
        assert [(e.time_us, e.icount) for e in entries] == truth


def test_snapshot_restore_fuzz_on_random_wrap_logs():
    """Random wrap-heavy logs, random restore points, random chunking
    after the restore — mirroring the chunk fuzz above."""
    rng = random.Random(0xD15C)
    for _trial in range(10):
        truth, time_us, icount = [], 0, 0
        for _ in range(40):
            time_us += rng.randint(0, U32 // 2)
            icount += rng.randint(0, U32 // 2)
            truth.append((time_us, icount))
        raw = pack_truth(truth)
        reference = list(iter_entries(raw))
        for _restore in range(8):
            cut = rng.randint(0, len(raw))
            first = WireDecoder()
            parts = [first.feed(chunk)
                     for chunk in random_chunks(raw[:cut], rng, 17)]
            second = WireDecoder.from_snapshot(first.snapshot())
            parts.extend(second.feed(chunk)
                         for chunk in random_chunks(raw[cut:], rng, 17))
            second.finish()
            assert entries_of(raw, parts, second) == reference


def test_snapshot_restore_on_blink(blink_raw):
    reference = list(iter_entries(blink_raw))
    for cut in (0, 5, ENTRY_SIZE, len(blink_raw) // 2 + 7,
                len(blink_raw) - 1, len(blink_raw)):
        assert snapshot_round_trip_at(blink_raw, cut) == reference


def test_bad_snapshots_are_rejected():
    with pytest.raises(LoggerError, match="snapshot"):
        WireDecoder.from_snapshot({"partial": "00"})  # missing fields
    whole_entry = WireDecoder()
    whole_entry.feed(pack_truth([(1, 1)]))
    state = whole_entry.snapshot()
    state["partial"] = "00" * ENTRY_SIZE  # a full entry can't be pending
    with pytest.raises(LoggerError, match="snapshot"):
        WireDecoder.from_snapshot(state)


# -- state/diagnostics -------------------------------------------------------


def test_finish_raises_on_torn_tail(blink_raw):
    decoder = WireDecoder()
    decoder.feed(blink_raw[:ENTRY_SIZE + 5])
    assert decoder.pending_bytes == 5
    with pytest.raises(LoggerError, match="partial entry"):
        decoder.finish()


def test_finish_is_clean_on_entry_boundary(blink_raw):
    decoder = WireDecoder()
    decoder.feed(blink_raw)
    decoder.finish()  # no raise


def test_empty_feeds_are_noops():
    decoder = WireDecoder()
    assert len(decoder.feed(b"")) == 0
    assert len(decoder.feed(b"\x01")) == 0  # sub-entry: buffered only
    assert decoder.pending_bytes == 1
    assert decoder.entries_decoded == 0


def test_feed_returns_the_streams_next_rows(blink_raw):
    """Each feed's columns are exactly the stream's rows from
    ``entries_decoded`` on, with the wire dtypes of the one-shot decode."""
    oneshot = decode_columns(blink_raw)
    decoder = WireDecoder()
    for start in range(0, len(blink_raw), 500):
        row = decoder.entries_decoded
        columns = decoder.feed(blink_raw[start:start + 500])
        assert np.array_equal(columns.time_ns,
                              oneshot.time_ns[row:row + len(columns)])
        assert np.array_equal(columns.value,
                              oneshot.value[row:row + len(columns)])
    assert decoder.entries_decoded == len(oneshot)
