"""FIMI ``.dat`` format I/O.

The Frequent Itemset Mining Implementations repository format: one
transaction per line, items as whitespace-separated non-negative
integers.  The synthetic generators write this format so the on-disk
path is the same one a user of the public FIMI datasets would exercise.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe, iter_bits

#: Characters per block of whole lines: bounds the token strings held.
_BLOCK_CHARS = 1 << 17


def write_fimi(database: TransactionDatabase, path: str | os.PathLike) -> None:
    """Write a database as FIMI ``.dat``.

    Items are written via ``str()``; integer universes round-trip exactly,
    other item types need re-mapping on read.
    Empty transactions produce empty lines (the format allows them).
    """
    universe = database.universe
    with open(path, "w", encoding="ascii") as handle:
        for row in database:
            items = (str(universe.item_at(i)) for i in iter_bits(row))
            handle.write(" ".join(items))
            handle.write("\n")


def _scan_universe(ids, universe: Universe | None = None) -> tuple:
    """``(universe, slots)`` for parsed item ids: the sorted set of ids
    becomes the universe unless one is supplied, and an id outside a
    supplied universe raises :class:`ValueError` naming it."""
    if universe is None:
        items = np.unique(ids)
        return Universe(items.tolist()), np.searchsorted(items, ids)
    try:
        slots = list(map(universe.index_of, ids.tolist()))
    except KeyError as error:
        raise ValueError(
            f"item {error.args[0]!r} is outside the universe"
        ) from None
    return universe, np.array(slots, dtype=np.intp)


def read_fimi(
    path: str | os.PathLike,
    universe: Universe | None = None,
    *,
    backend: str = "auto",
) -> TransactionDatabase:
    """Read a FIMI ``.dat`` file into a :class:`TransactionDatabase`.

    Args:
        path: the file to read.
        universe: optional pre-built universe; when omitted, the sorted
            set of item ids seen in the file.
        backend: vertical backend for the built database.

    One pass over the file, a block of lines at a time: every token goes
    through ``int()``, the ids are mapped to universe slots, and one
    stable argsort groups the row indices by item for
    :meth:`~repro.datasets.transactions.TransactionDatabase.from_columnar`
    — no horizontal row list is built.  Blank lines are empty
    transactions (they count toward the row total, as in FIMI tooling).
    """
    ids, rows, n_rows = [np.empty(0, np.int64)], [np.empty(0, np.int64)], 0
    with open(path, "r", encoding="ascii") as handle:
        while lines := handle.readlines(_BLOCK_CHARS):
            text = "".join(lines)
            values = list(map(int, text.split()))
            try:
                ids.append(np.array(values, dtype=np.int64))
            except OverflowError:  # ids past 64 bits stay Python ints
                ids.append(np.array(values, dtype=object))
            # int() took every token, so bytes <= 32 are exactly split()'s
            # whitespace; a token's row is the newline count before it.
            raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
            solid = raw > 32
            starts = np.flatnonzero(solid & np.diff(solid, prepend=False))
            newlines = np.flatnonzero(raw == 10)
            rows.append(n_rows + np.searchsorted(newlines, starts))
            n_rows += len(lines)
    ids, rows = np.concatenate(ids), np.concatenate(rows)
    universe, slots = _scan_universe(ids, universe)
    # A key dtype of at most 16 bits lets the stable sort run as radix.
    key = slots.astype(np.min_scalar_type(len(universe)))
    by_item = rows[np.argsort(key, kind="stable")]
    ends = np.cumsum(np.bincount(slots, minlength=len(universe))).tolist()
    return TransactionDatabase.from_columnar(
        universe,
        [by_item[start:end] for start, end in zip([0, *ends], ends)],
        n_rows,
        backend=backend,
    )


def write_transactions(
    transactions: Iterable[Iterable[int]], path: str | os.PathLike
) -> None:
    """Write raw integer transactions as FIMI ``.dat`` without a database."""
    with open(path, "w", encoding="ascii") as handle:
        for transaction in transactions:
            handle.write(" ".join(str(item) for item in sorted(transaction)))
            handle.write("\n")
