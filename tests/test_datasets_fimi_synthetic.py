"""Tests for FIMI I/O and the Quest-style generator."""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import fimi
from repro.datasets.fimi import (
    read_fimi,
    write_fimi,
    write_transactions,
)
from repro.datasets.synthetic import QuestParameters, generate_quest_database
from repro.datasets.transactions import TransactionDatabase
from repro.util.bitset import Universe


class TestFimiRoundTrip:
    def test_integer_round_trip(self, tmp_path):
        universe = Universe(range(5))
        database = TransactionDatabase(universe, [0b00111, 0b10001, 0b00000])
        path = tmp_path / "data.dat"
        write_fimi(database, path)
        loaded = read_fimi(path, universe=universe)
        assert loaded.transaction_masks == database.transaction_masks

    def test_read_infers_universe(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("3 7 11\n7\n")
        database = read_fimi(path)
        assert database.universe.items == (3, 7, 11)
        assert database.n_transactions == 2

    def test_blank_lines_are_empty_transactions(self, tmp_path):
        path = tmp_path / "data.dat"
        path.write_text("1 2\n\n2\n")
        database = read_fimi(path)
        assert database.n_transactions == 3
        assert database.support_count(0) == 3

    def test_write_transactions_sorts_items(self, tmp_path):
        path = tmp_path / "raw.dat"
        write_transactions([[3, 1, 2], [5]], path)
        assert path.read_text() == "1 2 3\n5\n"

    def test_written_file_is_plain_ascii(self, tmp_path):
        universe = Universe(range(3))
        database = TransactionDatabase(universe, [0b101])
        path = tmp_path / "data.dat"
        write_fimi(database, path)
        assert path.read_text() == "0 2\n"

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=30), max_size=8),
            max_size=25,
        ),
        st.booleans(),
    )
    def test_property_round_trip(self, transactions, trailing_newline):
        """write → read is the identity, including empty transactions
        (blank lines) and files with or without a final newline."""
        items = sorted({item for basket in transactions for item in basket})
        universe = Universe(items if items else [0])
        database = TransactionDatabase(
            universe, [universe.to_mask(basket) for basket in transactions]
        )
        # hypothesis forbids the function-scoped tmp_path fixture under
        # @given, so manage a scratch file per example by hand.
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "round.dat"
            write_fimi(database, path)
            # A trailing *empty* transaction is encoded as a final blank
            # line; dropping the newline would delete it, so the
            # no-final-newline variant only applies when the last row
            # has items.
            if not trailing_newline and transactions and transactions[-1]:
                text = path.read_text()
                if text.endswith("\n"):
                    path.write_text(text[:-1])
            reference = TransactionDatabase.from_transactions(
                transactions, universe
            )
            for backend in ("auto", "roaring"):
                loaded = read_fimi(path, universe=universe, backend=backend)
                assert loaded.transaction_masks == (
                    reference.transaction_masks
                )

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=30), max_size=8),
            min_size=1,
            max_size=25,
        ).filter(lambda baskets: any(baskets))
    )
    def test_matches_reference_without_universe(self, transactions):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "infer.dat"
            write_transactions(
                [sorted(basket) for basket in transactions], path
            )
            loaded = read_fimi(path)
            reference = TransactionDatabase.from_transactions(transactions)
            assert loaded.universe.items == reference.universe.items
            assert loaded.transaction_masks == reference.transaction_masks

    def test_read_stays_vertical(self, tmp_path):
        path = tmp_path / "vert.dat"
        path.write_text("1 2\n\n2 5\n")
        database = read_fimi(path)
        assert database._rows is None
        assert database.n_transactions == 3

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_backend_flows_through_readers(self, backend, tmp_path):
        path = tmp_path / "be.dat"
        path.write_text("0 1\n1 2\n")
        database = read_fimi(path, backend=backend)
        assert database.backend == backend
        assert database.n_transactions == 2

    def test_item_outside_supplied_universe_is_value_error(self, tmp_path):
        path = tmp_path / "foreign.dat"
        path.write_text("1 2\n7\n")
        with pytest.raises(ValueError, match="item 7 is outside"):
            read_fimi(path, universe=Universe([1, 2]))


#: Raw file bodies for :class:`TestReaderEdgeCases` (written in binary,
#: so line endings reach the reader exactly as given).
EDGE_CASES = {
    "empty_file": "",
    "blank_lines_only": "\n\n\n",
    "no_trailing_newline": "1 2\n\n3",
    "crlf": "1 2\r\n\r\n3 1\r\n",
    "duplicate_item_in_line": "4 4 5\n5 4 5\n",
    "other_whitespace": "1\t2  \x0b3 \n\x0c\n\x1c4\x1f5\r6\n",
    "id_past_64_bits": f"{2**64 + 1} 3\n3\n\n",
    "rows_63": "".join(f"{i % 5} {i % 3 + 7}\n" for i in range(63)),
    "rows_64": "".join(f"{i % 5} {i % 3 + 7}\n" for i in range(64)),
    "rows_65": "".join(f"{i % 5} {i % 3 + 7}\n" for i in range(65)),
}


class TestReaderEdgeCases:
    """``read_fimi`` against ``from_transactions`` on the parsed lines."""

    @pytest.mark.parametrize("block_chars", [1 << 20, 4])
    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_matches_reference(
        self, case, backend, block_chars, tmp_path, monkeypatch
    ):
        """Also with a block of a few characters: many blocks per file."""
        monkeypatch.setattr(fimi, "_BLOCK_CHARS", block_chars)
        text = EDGE_CASES[case]
        path = tmp_path / "edge.dat"
        path.write_bytes(text.encode("ascii"))
        lines = io.StringIO(text, newline=None).readlines()
        reference = TransactionDatabase.from_transactions(
            [int(token) for token in line.split()] for line in lines
        )
        database = read_fimi(path, backend=backend)
        assert database.universe == reference.universe
        assert database.n_transactions == len(lines)
        assert database.transaction_masks == reference.transaction_masks

    @pytest.mark.parametrize("backend", ["auto", "roaring"])
    def test_non_integer_token_raises(self, backend, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1 2\n3 x\n")
        with pytest.raises(ValueError, match="'x'"):
            read_fimi(path, backend=backend)


class TestQuestParameters:
    def test_defaults_valid(self):
        QuestParameters()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_items": 0},
            {"avg_transaction_length": 0},
            {"corruption": 1.0},
            {"pattern_reuse": -0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuestParameters(**kwargs)


class TestQuestGenerator:
    def test_shape(self):
        params = QuestParameters(n_items=50, n_transactions=200)
        database = generate_quest_database(params, seed=1)
        assert database.n_items == 50
        assert database.n_transactions == 200

    def test_deterministic_with_seed(self):
        params = QuestParameters(n_items=30, n_transactions=100)
        a = generate_quest_database(params, seed=7)
        b = generate_quest_database(params, seed=7)
        assert a.transaction_masks == b.transaction_masks

    def test_different_seeds_differ(self):
        params = QuestParameters(n_items=30, n_transactions=100)
        a = generate_quest_database(params, seed=1)
        b = generate_quest_database(params, seed=2)
        assert a.transaction_masks != b.transaction_masks

    def test_average_length_in_ballpark(self):
        params = QuestParameters(
            n_items=100, n_transactions=2000, avg_transaction_length=10
        )
        database = generate_quest_database(params, seed=3)
        average = sum(
            mask.bit_count() for mask in database.transaction_masks
        ) / len(database)
        assert 5 <= average <= 20

    def test_patterns_create_correlation(self):
        """Pattern-driven data has some pair far above independence."""
        params = QuestParameters(
            n_items=40,
            n_transactions=1500,
            avg_transaction_length=8,
            n_patterns=5,
            corruption=0.1,
        )
        database = generate_quest_database(params, seed=5)
        n = database.n_transactions
        best_lift = 0.0
        counts = database.item_support_counts()
        for i in range(database.n_items):
            for j in range(i + 1, database.n_items):
                if counts[i] < 30 or counts[j] < 30:
                    continue
                joint = database.support_count((1 << i) | (1 << j)) / n
                expected = (counts[i] / n) * (counts[j] / n)
                if expected > 0:
                    best_lift = max(best_lift, joint / expected)
        assert best_lift > 1.5

    def test_round_trips_through_fimi(self, tmp_path):
        params = QuestParameters(n_items=20, n_transactions=50)
        database = generate_quest_database(params, seed=11)
        path = tmp_path / "quest.dat"
        write_fimi(database, path)
        loaded = read_fimi(path, universe=database.universe)
        assert loaded.transaction_masks == database.transaction_masks
