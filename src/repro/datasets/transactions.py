"""0/1 transaction databases with fast vertical support counting.

A transaction database is the 0/1 relation ``r`` of Section 2 of the
paper: rows are transactions, columns are items, and the *support* of an
itemset ``X`` is the number of rows with 1 in every column of ``X``.

The relation is held two ways:

* horizontal — one bitmask per transaction (over the item universe), the
  natural form for generators and I/O, derived lazily when a database
  was built column-first;
* vertical — one column per item whose bit ``t`` is set when transaction
  ``t`` contains the item.  Support counting is then a chain of column
  ANDs plus one popcount, which is orders of magnitude faster in
  CPython than row scanning.

``backend=`` picks how the columns are stored, and nothing else:

* ``"auto"`` (default) — dense arbitrary-precision integers.  A large
  batch is counted over the same bitmaps viewed as a lazily built
  ``(n_items, ⌈n/64⌉)`` ``uint64`` numpy matrix, so a *whole candidate
  level* costs a handful of vectorized calls instead of one Python loop
  per itemset; small batches and small databases use the scalar AND
  chain.  The kernel is picked per call from the batch and row counts,
  and both return bit-identical counts.
* ``"roaring"`` — compressed :class:`~repro.util.roaring.RoaringBitmap`
  covers (64K-row chunks in array/bitmap/run containers): the same
  vertical surface and counts, but per-cover memory proportional to the
  *compressed* size instead of ``n/8`` bytes, which is what makes
  million-row vertical mining feasible (docs/API.md §18).

Rows become columns through one block-wise numpy transpose
(:meth:`TransactionDatabase._build_columns`) feeding the packer of the
column-first constructor (:meth:`TransactionDatabase.from_columnar`);
columns become rows through its mirror image
(:meth:`TransactionDatabase._row_block`).  The depth-first miner
(:mod:`repro.mining.eclat`) seeds its tidsets from :meth:`tidsets_view`
/ :attr:`full_tidset` and memoizes covers and diffsets per branch.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import numpy as _np

from repro.util.bitset import Universe, iter_bits, popcount
from repro.util.roaring import CHUNK, RoaringBitmap

# np.bitwise_count arrived in numpy 2.0; without it the scalar kernel is
# used (correctness is identical either way).
_HAS_VECTOR_POPCOUNT = hasattr(_np, "bitwise_count")

#: The accepted ``backend=`` values, one per column representation (the
#: CLI's ``--backend`` flag validates against this exact tuple).
BACKENDS = ("auto", "roaring")
# Below these sizes the scalar kernel wins on dispatch overhead alone.
_AUTO_MIN_ROWS = 128
_AUTO_MIN_BATCH = 64
# Vectorized groups are processed in blocks so the shared-conjunction
# working set stays cache-resident (larger blocks thrash measurably).
_BATCH_BLOCK = 2048
# Bytes of unpacked bits (one per row × item) per transpose block, in
# both directions; the transposed copy doubles it.
_TRANSPOSE_BYTES = 1 << 24

_U0 = _np.uint64(0)
_U1 = _np.uint64(1)
_U6 = _np.uint64(6)


def _block_rows(n_items: int) -> int:
    """Rows per transpose block: the largest power of two whose unpacked
    bits fit :data:`_TRANSPOSE_BYTES` (at least 8)."""
    return 1 << max(3, (_TRANSPOSE_BYTES // max(1, n_items)).bit_length() - 1)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


class TransactionDatabase:
    """An immutable 0/1 relation over an item universe.

    Args:
        universe: the item universe (column order).
        transaction_masks: one bitmask per row over ``universe``.
        backend: column representation — ``"auto"`` (default: dense
            big-int columns, counted by the scalar or the numpy kernel
            as the batch warrants) or ``"roaring"`` (compressed
            container bitmaps for million-row covers).  Both return
            bit-identical counts; the choice trades memory for speed
            at scale.

    Rows may repeat (multiset semantics, as in market-basket data).
    """

    __slots__ = (
        "universe",
        "_rows",
        "_n_rows",
        "_columns",
        "_backend",
        "_matrix",
        # weak-referenceable so ShmVerticalStore can detach the shared
        # numpy views of issued databases without keeping them alive
        "__weakref__",
    )

    def __init__(
        self,
        universe: Universe,
        transaction_masks: Iterable[int],
        *,
        backend: str = "auto",
    ):
        _check_backend(backend)
        self.universe = universe
        rows = list(transaction_masks)
        for row in rows:
            if row & ~universe.full_mask:
                raise ValueError("transaction uses items outside the universe")
        self._rows: list[int] | None = rows
        self._n_rows: int = len(rows)
        self._columns = self._build_columns(
            rows, len(universe), backend=backend
        )
        self._backend = backend
        self._matrix = None  # chunked vertical bitmaps, built lazily

    @classmethod
    def from_vertical(
        cls,
        universe: Universe,
        columns: Sequence[int],
        n_rows: int,
        *,
        backend: str = "auto",
    ) -> "TransactionDatabase":
        """Build directly from per-item column bitmaps (tidsets).

        The vertical-first constructor used by the shared-memory store
        (:class:`repro.parallel.shm.ShmVerticalStore`): a worker that
        mapped the column bitmaps of a published database reconstructs
        a counting-equivalent instance without ever materializing the
        horizontal row list.  Rows are derived lazily (and only) when a
        horizontal view is actually requested (``transaction_masks``,
        iteration); every counting path — ``support_count``,
        ``support_counts``, tidsets — works straight off the columns.
        """
        _check_backend(backend)
        if len(columns) != len(universe):
            raise ValueError(
                f"expected {len(universe)} columns, got {len(columns)}"
            )
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        if backend == "roaring":
            converted = [
                column
                if isinstance(column, RoaringBitmap)
                else RoaringBitmap.from_int(column)
                for column in columns
            ]
            for column in converted:
                if column.max_index() >= n_rows:
                    raise ValueError(
                        "column uses rows outside the database"
                    )
        else:
            converted = [
                column.to_int()
                if isinstance(column, RoaringBitmap)
                else column
                for column in columns
            ]
            full = (1 << n_rows) - 1
            for column in converted:
                if column & ~full:
                    raise ValueError(
                        "column uses rows outside the database"
                    )
        database = cls.__new__(cls)
        database.universe = universe
        database._rows = None
        database._n_rows = n_rows
        database._columns = converted
        database._backend = backend
        database._matrix = None
        return database

    def _rows_view(self) -> list[int]:
        """The horizontal row list, materialized from columns on demand.

        Instances built by :meth:`from_vertical` carry no rows until a
        horizontal consumer asks; the transpose (:meth:`_row_block`)
        preserves the row order the columns encode, so a round trip is
        the identity.  Roaring columns are made dense one whole-chunk
        span at a time (a chunk-aligned slice shares its containers, so
        each container is read once); every block is then cut from
        dense ints by shifts.
        """
        if self._rows is None:
            n_rows = self._n_rows
            step = _block_rows(len(self._columns))
            roaring = self._backend == "roaring"
            span = max(step, CHUNK) if roaring else max(n_rows, 1)
            rows: list[int] = []
            for base in range(0, n_rows, span):
                top = min(base + span, n_rows)
                dense = (
                    [col.sliced(base, top).to_int() for col in self._columns]
                    if roaring else self._columns
                )
                for start in range(base, top, step):
                    rows += self._row_block(
                        dense, start - base, min(start + step, top) - base
                    )
            self._rows = rows
        return self._rows

    @staticmethod
    def _row_block(columns: Sequence[int], start: int, stop: int) -> list[int]:
        """Rows ``start .. stop-1`` of the dense ``columns``: their bits
        unpacked to an ``items × rows`` matrix and packed back along the
        row axis."""
        keep = (1 << (stop - start)) - 1
        n_bytes = (stop - start + 7) // 8
        bits = _np.unpackbits(
            _np.frombuffer(
                b"".join(
                    ((col >> start) & keep).to_bytes(n_bytes, "little")
                    for col in columns
                ),
                dtype=_np.uint8,
            ).reshape(len(columns), n_bytes),
            axis=1, count=stop - start, bitorder="little",
        )
        packed = _np.packbits(bits.T, axis=1, bitorder="little")
        return [int.from_bytes(row, "little") for row in packed]

    @staticmethod
    def _build_columns(
        rows: Sequence[int], n_items: int, *, backend: str | None = None
    ) -> list:
        """Per-item row indices of the row masks ``rows`` (ascending
        ``intp`` arrays), the mirror of :meth:`_row_block`: each block of
        rows is unpacked to a ``rows × items`` bit matrix whose
        transpose's nonzeros are the (item, row) pairs in item order.
        Given a ``backend``, the indices are packed into its columns by
        :meth:`_pack_columns`."""
        n_bytes = (n_items + 7) // 8
        step = _block_rows(n_items)
        blocks = []
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            bits = _np.unpackbits(
                _np.frombuffer(
                    b"".join(row.to_bytes(n_bytes, "little") for row in chunk),
                    dtype=_np.uint8,
                ).reshape(len(chunk), n_bytes),
                axis=1, count=n_items, bitorder="little",
            )
            items, offsets = _np.nonzero(bits.T)
            offsets += start
            bounds = _np.searchsorted(items, _np.arange(n_items + 1)).tolist()
            blocks.append([
                offsets[lo:hi] for lo, hi in zip(bounds, bounds[1:])
            ])
        item_rows = (
            [_np.concatenate(parts) for parts in zip(*blocks)]
            if blocks else [_np.empty(0, dtype=_np.intp)] * n_items
        )
        if backend is None:
            return item_rows
        return TransactionDatabase._pack_columns(item_rows, len(rows), backend)

    @staticmethod
    def _pack_columns(
        item_rows: Sequence[Iterable[int]], n_rows: int, backend: str
    ) -> list:
        """Per-item row indices packed into columns of ``backend``.

        A dense column is its rows set in a numpy bit buffer, then one
        ``int.from_bytes``; a ``"roaring"`` column is built by its
        container builder, with no dense buffer.  numpy and
        ``array("Q")`` index arrays are read without a copy.
        """
        columns: list = []
        for rows in item_rows:
            rows = _np.asarray(rows)
            if rows.size and not 0 <= rows.min() <= rows.max() < n_rows:
                raise ValueError("column uses rows outside the database")
            if backend == "roaring":
                columns.append(RoaringBitmap.from_indices(rows.tolist()))
                continue
            bits = _np.zeros(n_rows, dtype=bool)
            bits[rows.astype(_np.intp)] = True
            columns.append(int.from_bytes(
                _np.packbits(bits, bitorder="little").tobytes(), "little"
            ))
        return columns

    @classmethod
    def from_columnar(
        cls,
        universe: Universe,
        item_rows: Sequence[Iterable[int]],
        n_rows: int,
        *,
        backend: str = "auto",
    ) -> "TransactionDatabase":
        """Build from per-item row-index lists, skipping row bitmasks.

        The column-first ingestion constructor of ``read_fimi`` and
        ``read_baskets_csv``; columns are packed by
        :meth:`_pack_columns`, as in the horizontal constructor.
        """
        _check_backend(backend)
        if len(item_rows) != len(universe):
            raise ValueError(
                f"expected {len(universe)} item row lists, "
                f"got {len(item_rows)}"
            )
        return cls.from_vertical(
            universe,
            cls._pack_columns(item_rows, n_rows, backend),
            n_rows,
            backend=backend,
        )

    @classmethod
    def from_transactions(
        cls,
        transactions: Iterable[Iterable[Hashable]],
        universe: Universe | None = None,
        *,
        backend: str = "auto",
    ) -> "TransactionDatabase":
        """Build from item collections, inferring a sorted universe.

        Example:
            >>> db = TransactionDatabase.from_transactions(
            ...     [{"bread", "milk"}, {"milk"}])
            >>> db.support_count(db.universe.to_mask({"milk"}))
            2
        """
        materialized = [frozenset(t) for t in transactions]
        if universe is None:
            items: set = set()
            for transaction in materialized:
                items |= transaction
            universe = Universe(sorted(items))
        return cls(
            universe,
            (universe.to_mask(t) for t in materialized),
            backend=backend,
        )

    # -- shape --------------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_items(self) -> int:
        """Number of columns (universe size)."""
        return len(self.universe)

    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self):
        return iter(self._rows_view())

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase({self.n_transactions} transactions, "
            f"{self.n_items} items)"
        )

    @property
    def backend(self) -> str:
        """The configured vertical-counting backend name."""
        return self._backend

    @property
    def transaction_masks(self) -> list[int]:
        """A copy of the horizontal representation (safe to mutate)."""
        return list(self._rows_view())

    def shards(self, n_shards: int) -> list["TransactionDatabase"]:
        """Split the rows into contiguous shard databases.

        The shards partition the rows (balanced, deterministic, in row
        order) over the *same* universe, so for every itemset mask the
        shard support counts sum exactly to this database's count —
        the invariant :mod:`repro.parallel` builds on.  At most
        ``n_transactions`` non-empty shards are produced.
        """
        from repro.parallel.sharding import shard_bounds

        return [
            TransactionDatabase.from_vertical(
                self.universe,
                self._column_slices(start, stop),
                stop - start,
                backend=self._backend,
            )
            for start, stop in shard_bounds(self._n_rows, n_shards)
        ]

    def _column_slices(self, start: int, stop: int) -> list:
        """Every column cut to rows ``start .. stop-1``, re-indexed from 0
        (chunk-aligned roaring slices share interior containers)."""
        if self._backend == "roaring":
            return [col.sliced(start, stop) for col in self._columns]
        keep = (1 << (stop - start)) - 1
        return [(col >> start) & keep for col in self._columns]

    def transactions_as_sets(self) -> list[frozenset]:
        """Rows as ``frozenset`` objects (allocates; for inspection)."""
        return [self.universe.to_set(row) for row in self._rows_view()]

    # -- support ------------------------------------------------------------

    def support_count(self, itemset_mask: int) -> int:
        """Number of transactions containing every item of the mask.

        The empty itemset is contained in every transaction, so its
        support is ``n_transactions`` — which is why the empty set is
        always frequent (the levelwise seed).
        """
        if itemset_mask == 0:
            return self._n_rows
        columns = self._columns
        bits = iter_bits(itemset_mask)
        accumulator = columns[next(bits)]
        for item_index in bits:
            accumulator &= columns[item_index]
            if not accumulator:
                return 0
        return popcount(accumulator)

    def support_counts(self, itemset_masks: Iterable[int]) -> list[int]:
        """Support counts of a whole batch of itemsets in one pass.

        The batched form of :meth:`support_count`: semantically
        ``[self.support_count(m) for m in itemset_masks]``, bit for bit.
        On dense columns a batch of at least ``_AUTO_MIN_BATCH`` masks
        over at least ``_AUTO_MIN_ROWS`` rows is grouped by itemset size
        and each group is resolved with a vectorized AND-reduce plus
        ``bitwise_count`` over the chunked vertical bitmaps, amortizing
        all per-itemset Python dispatch — the level-at-a-time database
        pass of practical Apriori implementations.  Roaring columns and
        small batches take the scalar AND chain.
        """
        masks = list(itemset_masks)
        if (
            _HAS_VECTOR_POPCOUNT
            and self._backend != "roaring"
            and len(masks) >= _AUTO_MIN_BATCH
            and self._n_rows >= _AUTO_MIN_ROWS
        ):
            return self._support_counts_numpy(masks)
        count = self.support_count
        return [count(mask) for mask in masks]

    def _vertical_matrix(self):
        """The chunked vertical bitmaps of dense columns:
        ``(n_items, ⌈n/64⌉)`` uint64."""
        if self._matrix is None:
            n_chunks = (self._n_rows + 63) // 64
            n_bytes = n_chunks * 8
            packed = b"".join(
                column.to_bytes(n_bytes, "little") for column in self._columns
            )
            self._matrix = _np.frombuffer(packed, dtype="<u8").reshape(
                len(self._columns), n_chunks
            )
        return self._matrix

    def _conjunctions(self, masks_matrix, size: int, is_sorted: bool):
        """Row bitmaps of each itemset in a ``(d, ⌈items/64⌉)`` uint64
        mask matrix, all of popcount ``size``, via shared parents.

        Each itemset's conjunction is its lowest bit's column ANDed with
        the conjunction of its *parent* (the itemset minus that bit);
        parents are deduplicated, so siblings share one recursive
        computation.  Itemsets with a common parent occupy a contiguous
        numeric interval, hence for sorted input the dedup is a
        consecutive compare and the expansion a sequential ``repeat``
        rather than a gather.  No per-itemset Python work anywhere —
        that, not the AND itself, is what the scalar path pays for.
        """
        matrix = self._vertical_matrix()
        d = len(masks_matrix)
        arange = _np.arange(d)
        low_chunk = (masks_matrix != 0).argmax(axis=1)
        chunk_values = masks_matrix[arange, low_chunk]
        low_bit = chunk_values & (_U0 - chunk_values)
        ext = (
            low_chunk.astype(_np.uint64) << _U6
            | _np.bitwise_count(low_bit - _U1)
        ).astype(_np.intp)
        columns = matrix.take(ext, axis=0)
        if size == 1:
            return columns
        parents = masks_matrix.copy()
        parents[arange, low_chunk] ^= low_bit
        if is_sorted:
            fresh = _np.empty(d, dtype=bool)
            fresh[0] = True
            if d > 1:
                fresh[1:] = (parents[1:] != parents[:-1]).any(axis=1)
            starts = _np.flatnonzero(fresh)
            group_sizes = _np.diff(_np.append(starts, d))
            unique_conj = self._conjunctions(
                parents[fresh], size - 1, False
            )
            conjunction = _np.repeat(unique_conj, group_sizes, axis=0)
            _np.bitwise_and(conjunction, columns, out=conjunction)
            return conjunction
        order = _np.lexsort(tuple(parents.T))
        parents_sorted = parents[order]
        fresh = _np.empty(d, dtype=bool)
        fresh[0] = True
        if d > 1:
            fresh[1:] = (parents_sorted[1:] != parents_sorted[:-1]).any(
                axis=1
            )
        unique_conj = self._conjunctions(
            parents_sorted[fresh], size - 1, False
        )
        parent_id = _np.empty(d, dtype=_np.intp)
        parent_id[order] = _np.cumsum(fresh) - 1
        conjunction = unique_conj.take(parent_id, axis=0)
        _np.bitwise_and(conjunction, columns, out=conjunction)
        return conjunction

    def _conjunctions_1chunk(self, masks_vector, size: int, is_sorted: bool):
        """Single-chunk variant of :meth:`_conjunctions`.

        For universes of at most 64 items the mask matrix degenerates to
        a flat uint64 vector, so parent computation is a scalar ``xor``
        and dedup ordering a plain ``argsort`` — measurably faster than
        the general row-wise machinery.
        """
        matrix = self._vertical_matrix()
        d = len(masks_vector)
        low_bit = masks_vector & (_U0 - masks_vector)
        ext = _np.bitwise_count(low_bit - _U1).astype(_np.intp)
        columns = matrix.take(ext, axis=0)
        if size == 1:
            return columns
        parents = masks_vector ^ low_bit
        if is_sorted:
            fresh = _np.empty(d, dtype=bool)
            fresh[0] = True
            fresh[1:] = parents[1:] != parents[:-1]
            starts = _np.flatnonzero(fresh)
            group_sizes = _np.diff(_np.append(starts, d))
            unique_conj = self._conjunctions_1chunk(
                parents[starts], size - 1, False
            )
            conjunction = _np.repeat(unique_conj, group_sizes, axis=0)
            _np.bitwise_and(conjunction, columns, out=conjunction)
            return conjunction
        order = _np.argsort(parents, kind="stable")
        parents_sorted = parents[order]
        fresh = _np.empty(d, dtype=bool)
        fresh[0] = True
        fresh[1:] = parents_sorted[1:] != parents_sorted[:-1]
        unique_conj = self._conjunctions_1chunk(
            parents_sorted[fresh], size - 1, False
        )
        parent_id = _np.empty(d, dtype=_np.intp)
        parent_id[order] = _np.cumsum(fresh) - 1
        conjunction = unique_conj.take(parent_id, axis=0)
        _np.bitwise_and(conjunction, columns, out=conjunction)
        return conjunction

    def _support_counts_numpy_1chunk(self, masks: list[int]) -> list[int]:
        n = len(masks)
        n_rows = self._n_rows
        vector = _np.fromiter(masks, dtype=_np.uint64, count=n)
        sizes = _np.bitwise_count(vector)
        out = _np.empty(n, dtype=_np.int64)
        out[sizes == 0] = n_rows
        order = _np.lexsort((vector, sizes))
        vector_sorted = vector[order]
        sizes_sorted = sizes[order]
        max_size = int(sizes_sorted[-1])
        bounds = _np.searchsorted(sizes_sorted, _np.arange(max_size + 2))
        for size in range(1, max_size + 1):
            lo, hi = int(bounds[size]), int(bounds[size + 1])
            if lo == hi:
                continue
            for start in range(lo, hi, _BATCH_BLOCK):
                conjunction = self._conjunctions_1chunk(
                    vector_sorted[start : start + _BATCH_BLOCK], size, True
                )
                out[order[start : start + _BATCH_BLOCK]] = (
                    _np.bitwise_count(conjunction).sum(
                        axis=1, dtype=_np.int64
                    )
                )
        return out.tolist()

    def _support_counts_numpy(self, masks: list[int]) -> list[int]:
        n = len(masks)
        if n == 0:
            return []
        if len(self.universe) <= 64:
            return self._support_counts_numpy_1chunk(masks)
        n_rows = self._n_rows
        mask_chunks = max(1, (len(self.universe) + 63) // 64)
        mask_bytes = mask_chunks * 8
        packed = b"".join(m.to_bytes(mask_bytes, "little") for m in masks)
        masks_matrix = _np.frombuffer(packed, dtype="<u8").reshape(
            n, mask_chunks
        )
        sizes = _np.bitwise_count(masks_matrix).sum(axis=1, dtype=_np.int64)
        out = _np.empty(n, dtype=_np.int64)
        out[sizes == 0] = n_rows
        for size in range(1, int(sizes.max(initial=0)) + 1):
            positions = _np.flatnonzero(sizes == size)
            if not len(positions):
                continue
            group = masks_matrix[positions]
            # Sort so same-parent itemsets are adjacent (they share the
            # conjunction of everything above their lowest bit).
            order = _np.lexsort(tuple(group.T))
            positions = positions[order]
            group = group[order]
            for start in range(0, len(positions), _BATCH_BLOCK):
                conjunction = self._conjunctions(
                    group[start : start + _BATCH_BLOCK], size, True
                )
                out[positions[start : start + _BATCH_BLOCK]] = (
                    _np.bitwise_count(conjunction).sum(
                        axis=1, dtype=_np.int64
                    )
                )
        return out.tolist()

    # -- tidsets (the Eclat vertical surface) --------------------------------

    @property
    def full_tidset(self):
        """Cover of every transaction (the tidset of ∅).

        A big-int bitmask, or a :class:`RoaringBitmap` of all rows on
        the ``"roaring"`` backend (run containers; O(n / 64Ki) size).
        """
        if self._backend == "roaring":
            return RoaringBitmap.full(self._n_rows)
        return (1 << self._n_rows) - 1

    def tidsets_view(self) -> list[int]:
        """The per-item column bitmaps (tidsets of singletons), zero-copy.

        Bit ``t`` of entry ``i`` is set when transaction ``t`` contains
        item ``i``.  The depth-first miner seeds its root equivalence
        class from this list.  Callers must not mutate the returned
        list.
        """
        return self._columns

    def frequency(self, itemset_mask: int) -> float:
        """Relative support in ``[0, 1]`` (0.0 for an empty database)."""
        if not self._n_rows:
            return 0.0
        return self.support_count(itemset_mask) / self._n_rows

    def is_frequent(self, itemset_mask: int, min_support: int) -> bool:
        """True when support count reaches the absolute threshold."""
        return self.support_count(itemset_mask) >= min_support

    def absolute_support(self, min_frequency: float) -> int:
        """Convert a relative threshold ``σ`` to an absolute row count.

        Uses ceiling semantics: a set is ``σ``-frequent iff its count is
        at least ``ceil(σ · n)`` (with a floor of 1 row for ``σ > 0``).
        """
        if not 0.0 <= min_frequency <= 1.0:
            raise ValueError("min_frequency must be within [0, 1]")
        import math

        if min_frequency == 0.0:
            return 0
        return max(1, math.ceil(min_frequency * self._n_rows))

    def item_support_counts(self) -> list[int]:
        """Support count of each single item, in universe order."""
        return [popcount(column) for column in self._columns]

    def project(self, item_mask: int) -> "TransactionDatabase":
        """Database restricted to the items in ``item_mask``.

        The universe shrinks to the selected items; rows are intersected
        (and kept even when they become empty, preserving row count and
        hence relative frequencies).
        """
        selected = list(iter_bits(item_mask))
        return TransactionDatabase.from_vertical(
            Universe(self.universe.item_at(i) for i in selected),
            [self._columns[i] for i in selected],
            self._n_rows,
            backend=self._backend,
        )
