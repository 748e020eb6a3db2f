"""The bulk log packer: ``raw_bytes()`` and the fused decode's records
are byte-identical to packing every entry tuple on its own."""

import numpy as np
import pytest

from repro.apps.blink import BlinkApp
from repro.core.logger import (
    ENTRY_STRUCT,
    TYPE_ACT_CHANGE,
    TYPE_POWERSTATE,
    _ring_records,
    decode_batch,
    decode_columns,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds

U32 = 1 << 32


def per_entry_bytes(logger):
    """The reference: one ``ENTRY_STRUCT.pack`` per entry, shipped
    entries first, then the resident buffer."""
    return b"".join(ENTRY_STRUCT.pack(*entry)
                    for entry in [*logger._dumped, *logger._buffer])


def _blink_logger(**config):
    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1, **config),
                      rng_factory=RngFactory(0))
    node.boot(BlinkApp().start)
    sim.run(until=seconds(12))
    return node.logger


@pytest.fixture(scope="module")
def loggers():
    """A log in each mode, one with u32-wrapping fields, and an empty
    one."""
    ram = _blink_logger()
    drain = _blink_logger(logger_mode="drain")
    dump = _blink_logger(logger_buffer_entries=64, logger_auto_dump=True)
    wrapped = _blink_logger()
    # Splice in entries whose time and iCount fields wrap past 2^32
    # (masked, as record() stores them), on both stores, enough of them
    # to span several of the packer's slices and end mid-slice.
    wrapped._dumped.extend(
        (TYPE_POWERSTATE, 1, (U32 - 500 + k) % U32,
         (U32 - 2 + 3 * k) % U32, k & 0xFFFF) for k in range(1500))
    wrapped._buffer.extend(
        (TYPE_ACT_CHANGE, 0, (U32 - 1 + k) % U32, (U32 - 1 + k) % U32,
         0xFFFF) for k in range(1100))
    empty = _blink_logger()
    empty.reset()
    return {"ram": ram, "drain": drain, "auto_dump": dump,
            "wrapped": wrapped, "empty": empty}


def test_modes_fill_both_stores(loggers):
    assert loggers["drain"]._dumped and loggers["drain"].drain_task_runs
    assert loggers["auto_dump"]._dumped \
        and loggers["auto_dump"].dumps_completed
    assert not loggers["empty"]._dumped and not loggers["empty"]._buffer


@pytest.mark.parametrize(
    "mode", ["ram", "drain", "auto_dump", "wrapped", "empty"])
def test_raw_bytes_match_per_entry_packing(loggers, mode):
    logger = loggers[mode]
    logger._packed_count = -1  # repack, whatever an earlier test cached
    assert logger.raw_bytes() == per_entry_bytes(logger)


def test_batch_records_match_per_entry_packing(loggers):
    order = ["ram", "empty", "drain", "auto_dump", "wrapped"]
    batch = [loggers[mode] for mode in order]
    records, counts = _ring_records(batch)
    assert records.tobytes() == b"".join(
        per_entry_bytes(logger) for logger in batch)
    assert counts == [len(logger._dumped) + len(logger._buffer)
                      for logger in batch]
    for logger, columns in zip(batch, decode_batch(batch)):
        reference = decode_columns(per_entry_bytes(logger))
        for name in ("type", "res_id", "time_ns", "icount", "value"):
            assert np.array_equal(getattr(columns, name),
                                  getattr(reference, name)), name
        logger._columns_cache = None


def test_empty_batch():
    records, counts = _ring_records([])
    assert len(records) == 0 and counts == []
    assert decode_batch([]) == []
