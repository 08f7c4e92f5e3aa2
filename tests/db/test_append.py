"""Append-only chunk-store writes and append-aware tables.

The contract under test is the heart of the delta-maintenance fix:
appending rows to an on-disk chunk store extends column files in place
and swaps the manifest atomically, so k sequential appends produce a
store byte-identical to one bulk write (same digest, same fingerprints,
same cache keys), while readers that opened the store earlier keep a
fully consistent old view.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import chunks as C
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.exceptions import SchemaError, StorageError


_ROLES = {
    "dim": ColumnRole.DIMENSION,
    "small_int": ColumnRole.DIMENSION,
    "measure": ColumnRole.MEASURE,
}


def _table(n: int, seed: int = 0, name: str = "toy") -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        name,
        {
            "dim": rng.choice(["a", "b'c", "O'Brien", "z"], n),
            "small_int": rng.integers(0, 4, n),
            "measure": rng.gamma(2.0, 10.0, n),
        },
        roles=_ROLES,
    )


def _growing_table(n: int, seed: int = 0) -> Table:
    """Like :func:`_table`, but later rows draw ``dim`` from a wider pool.

    The pool is unsorted, so a batch that reaches further into it brings
    categories that land *between* stored ones and force a code remap.
    """
    rng = np.random.default_rng(seed)
    pool = np.array(["m", "a", "z", "b'c", "O'Brien", "k", "zz", "B"])
    reach = 1 + np.arange(n) * len(pool) // n
    return Table(
        "toy",
        {
            "dim": pool[rng.integers(0, reach)],
            "small_int": rng.integers(0, 4, n),
            "measure": rng.gamma(2.0, 10.0, n),
        },
        roles=_ROLES,
    )


def _columns(table: Table, start: int, stop: int) -> dict[str, np.ndarray]:
    """Logical column values for rows [start, stop) of a resident table."""
    return {
        col.name: np.asarray(table.column(col.name))[start:stop]
        for col in table.schema
    }


class TestAppendRows:
    def test_append_extends_and_preserves_prefix(self, tmp_path):
        table = _table(200)
        C.write_table(table, tmp_path / "ds", chunk_rows=64)
        extra = _table(30, seed=9)
        manifest = C.append_rows(tmp_path / "ds", _columns(extra, 0, 30))
        assert manifest.n_rows == 230
        assert manifest == C.read_manifest(tmp_path / "ds")
        reopened = C.open_table(tmp_path / "ds")
        assert reopened.nrows == 230
        for name in ("dim", "small_int", "measure"):
            merged = np.concatenate(
                [np.asarray(table.column(name)), np.asarray(extra.column(name))]
            )
            got = np.asarray(reopened.column(name))
            if got.dtype.kind == "U":
                assert list(got) == list(merged.astype(str))
            else:
                assert np.array_equal(got, merged)

    def test_append_changes_digest(self, tmp_path):
        table = _table(100)
        C.write_table(table, tmp_path / "ds")
        before = C.read_manifest(tmp_path / "ds").digest
        C.append_rows(tmp_path / "ds", _columns(_table(10, seed=3), 0, 10))
        after = C.read_manifest(tmp_path / "ds").digest
        assert before != after

    def test_append_with_new_categories_unions_dictionary(self, tmp_path):
        """Delta rows may introduce category values the base never saw."""
        base = Table(
            "toy",
            {"dim": ["a", "b", "a"], "m": [1.0, 2.0, 3.0]},
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        C.write_table(base, tmp_path / "ds", chunk_rows=2)
        C.append_rows(tmp_path / "ds", {"dim": ["zz", "a"], "m": [4.0, 5.0]})
        reopened = C.open_table(tmp_path / "ds")
        assert list(np.asarray(reopened.column("dim"))) == ["a", "b", "a", "zz", "a"]
        assert list(reopened.categories("dim")) == ["a", "b", "zz"]

    def test_append_validation_errors(self, tmp_path):
        C.write_table(_table(50), tmp_path / "ds")
        with pytest.raises(StorageError, match="unknown columns"):
            C.append_rows(tmp_path / "ds", {"dim": ["a"], "small_int": [1], "measure": [1.0], "bogus": [2]})
        with pytest.raises(StorageError, match="missing columns"):
            C.append_rows(tmp_path / "ds", {"dim": ["a"]})
        with pytest.raises(StorageError, match="disagree on row count"):
            C.append_rows(
                tmp_path / "ds",
                {"dim": ["a", "b"], "small_int": [1], "measure": [1.0]},
            )
        with pytest.raises(StorageError, match="zero rows"):
            C.append_rows(
                tmp_path / "ds", {"dim": [], "small_int": [], "measure": []}
            )

    def test_rejected_append_leaves_the_store_untouched(self, tmp_path):
        """A value a later column rejects must not half-apply earlier ones.

        ``dim`` would gain a category (a whole-column rewrite) before ``m``
        refuses its batch; every column is encoded before any is written.
        """
        base = Table(
            "toy",
            {"dim": ["a", "b", "a"], "m": [1.0, 2.0, 3.0]},
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        C.write_table(base, tmp_path / "ds", chunk_rows=2)
        before = C.read_manifest(tmp_path / "ds")
        with pytest.raises(StorageError, match="column 'm' rejects"):
            C.append_rows(tmp_path / "ds", {"dim": ["Zed", "a"], "m": ["oops", 5.0]})
        assert C.read_manifest(tmp_path / "ds") == before
        reopened = C.open_table(tmp_path / "ds")
        assert list(np.asarray(reopened.column("dim"))) == ["a", "b", "a"]
        # The next valid append lands exactly what a bulk write would.
        C.append_rows(tmp_path / "ds", {"dim": ["Zed", "a"], "m": [4.0, 5.0]})
        bulk = Table(
            "toy",
            {"dim": ["a", "b", "a", "Zed", "a"], "m": [1.0, 2.0, 3.0, 4.0, 5.0]},
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        C.write_table(bulk, tmp_path / "bulk", chunk_rows=2)
        assert C.read_manifest(tmp_path / "ds") == C.read_manifest(tmp_path / "bulk")

    @pytest.mark.parametrize("store", ["disk", "memory"])
    @pytest.mark.parametrize(
        "dim, m, wrong",
        [
            ([{"a": 1}], [1.0], "'dim' rejects appended dict"),
            ([None], [1.0], "'dim' rejects appended NoneType"),
            ([5], [1.0], "'dim' rejects appended int"),
            (["a", 5], [1.0, 2.0], "'dim' rejects appended int"),
            (["a"], [True], "'m' rejects appended bool"),
            (["a"], ["1.5"], "'m' rejects appended str"),
            (["a", "b"], [[1.0], 2.0], "'m' rejects appended list"),
            (["a"], np.array([[1.0]]), "'m' must be 1-D"),
            (np.array(["a"]), np.array([True]), "'m' rejects appended bool"),
        ],
    )
    def test_a_cell_of_the_wrong_type_is_rejected_not_converted(
        self, tmp_path, dim, m, wrong, store
    ):
        """A string column takes strings, a float column numbers — no
        booleans — and ``None`` as NaN; nothing else is converted.  A chunk
        store and an in-memory table apply the same rule."""
        base = Table(
            "toy",
            {"dim": ["a", "b"], "m": [1.0, 2.0]},
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        if store == "disk":
            C.write_table(base, tmp_path / "ds", chunk_rows=2)
            before = C.read_manifest(tmp_path / "ds")
            with pytest.raises(StorageError, match=wrong):
                C.append_rows(tmp_path / "ds", {"dim": dim, "m": m})
            assert C.read_manifest(tmp_path / "ds") == before
            C.append_rows(tmp_path / "ds", {"dim": ["b", "c"], "m": [None, 3]})
            table = C.open_table(tmp_path / "ds")
        else:
            before = base.fingerprint()
            with pytest.raises(SchemaError, match=wrong):
                base.append({"dim": dim, "m": m})
            assert base.fingerprint() == before and base.nrows == 2
            base.append({"dim": ["b", "c"], "m": [None, 3]})
            table = base
        assert list(np.asarray(table.column("dim"))) == ["a", "b", "b", "c"]
        np.testing.assert_array_equal(table.column("m"), [1.0, 2.0, np.nan, 3.0])

    def test_append_table_helper_matches_append_rows(self, tmp_path):
        table = _table(120)
        extra = _table(12, seed=5)
        C.write_table(table, tmp_path / "a", chunk_rows=32)
        C.write_table(table, tmp_path / "b", chunk_rows=32)
        C.append_table(tmp_path / "a", extra)
        C.append_rows(tmp_path / "b", _columns(extra, 0, 12))
        assert (
            C.read_manifest(tmp_path / "a").digest
            == C.read_manifest(tmp_path / "b").digest
        )


class TestRawStringColumn:
    """A string column written without a dictionary stores its values at one
    fixed width; an append lands at that width or is refused whole."""

    def _store(self, root: Path) -> C.ChunkManifest:
        writer = C.ChunkStoreWriter(root, "toy", chunk_rows=2)
        writer.add_column("m", np.float64, ColumnRole.MEASURE).append(
            np.array([1.0, 2.0])
        )
        writer.add_column("code", "<U5", ColumnRole.OTHER).append(
            np.array(["abcde", "xy"])
        )
        return writer.finish()

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_a_narrower_batch_lands_at_the_stored_width(self, tmp_path, as_array):
        self._store(tmp_path / "ds")
        cells = np.array(["ab"]) if as_array else ["ab"]
        C.append_rows(tmp_path / "ds", {"m": [3.0], "code": cells})
        table = C.open_table(tmp_path / "ds")
        assert list(np.asarray(table.column("code"))) == ["abcde", "xy", "ab"]
        np.testing.assert_array_equal(table.column("m"), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_a_longer_cell_is_refused_before_any_write(self, tmp_path, as_array):
        before = self._store(tmp_path / "ds")
        files = {
            col.file: (tmp_path / "ds" / col.file).read_bytes() for col in before.columns
        }
        cells = np.array(["ab", "abcdef"]) if as_array else ["ab", "abcdef"]
        with pytest.raises(StorageError, match="at most 5 characters; appended 'abcdef'"):
            C.append_rows(tmp_path / "ds", {"m": [3.0, 4.0], "code": cells})
        assert C.read_manifest(tmp_path / "ds") == before
        assert {name: (tmp_path / "ds" / name).read_bytes() for name in files} == files
        table = C.open_table(tmp_path / "ds")
        assert list(np.asarray(table.column("code"))) == ["abcde", "xy"]


class TestEncodeByLookup:
    """A batch of known categories encodes by lookup; the union stays the
    fallback.  Both give the same ``(blob, categories, remap)`` for every
    batch, and the store an append leaves equals a bulk write."""

    BASE = ["a", "", "b'c", "z", "a", "", "z", "b'c", "a"]

    def _store(self, root: Path) -> tuple[C.ColumnManifest, np.ndarray]:
        base = Table(
            "toy",
            {"dim": self.BASE, "m": np.arange(len(self.BASE), dtype=np.float64)},
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        C.write_table(base, root, chunk_rows=4)
        col = C.read_manifest(root).column("dim")
        return col, np.fromfile(root / col.categories_file, dtype=col.dtype)

    @staticmethod
    def _assert_same(got, want) -> None:
        (blob, cats, remap), (want_blob, want_cats, want_remap) = got, want
        assert blob == want_blob
        assert cats.dtype == want_cats.dtype and cats.tolist() == want_cats.tolist()
        assert (remap is None) == (want_remap is None)
        if remap is not None:
            assert remap.dtype == want_remap.dtype
            assert remap.tobytes() == want_remap.tobytes()

    @pytest.mark.parametrize(
        "cells, by_lookup, rewrites",
        [
            (["z", "a", "b'c", "a"], True, False),
            (np.array(["z", "a", "b'c", "a"]), True, False),
            (["", "a", ""], True, False),
            (np.array(["", "a", ""]), True, False),
            (["z", "new", "a"], False, True),
            (np.array(["z", "new", "a"]), False, True),
            # Wider than the stored ``<U3``, every value known: the union
            # rewrites the dictionary at the wider dtype.
            (np.array(["z", "a"], dtype="<U12"), False, True),
            # An array holds no trailing NUL: numpy dropped it, the cell is "a".
            (np.array(["a\x00", "z"]), True, False),
        ],
        ids=[
            "list", "array", "empty-list", "empty-array", "unseen-list",
            "unseen-array", "wider-array", "trailing-nul",
        ],
    )
    def test_lookup_equals_union(self, tmp_path, cells, by_lookup, rewrites):
        col, stored = self._store(tmp_path / "ds")
        assert col.n_categories == len(stored) == 4
        checked = C.appended_columns(
            {"dim": cells, "m": [1.0] * len(cells)},
            {"dim": np.dtype(col.dtype), "m": np.dtype(np.float64)},
            StorageError,
        )["dim"]
        assert (C._lookup_codes(stored, checked) is not None) == by_lookup
        got = C._encode_appended(tmp_path / "ds", col, checked)
        self._assert_same(got, C._union_encoded(stored, col.n_categories, np.asarray(checked)))
        assert (got[2] is not None) == rewrites
        # The append lands what a bulk write of the same rows does.
        C.append_rows(tmp_path / "ds", {"dim": cells, "m": [1.0] * len(cells)})
        bulk = Table(
            "toy",
            {
                "dim": np.concatenate([np.asarray(self.BASE), np.asarray(cells)]),
                "m": np.concatenate(
                    [np.arange(len(self.BASE), dtype=np.float64), [1.0] * len(cells)]
                ),
            },
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        C.write_table(bulk, tmp_path / "bulk", chunk_rows=4)
        assert C.read_manifest(tmp_path / "ds") == C.read_manifest(tmp_path / "bulk")
        reopened = C.open_table(tmp_path / "ds")
        assert list(np.asarray(reopened.column("dim")))[len(self.BASE):] == list(
            np.asarray(cells)
        )

    @pytest.mark.parametrize(
        "cells", [["a\x00", "z"], np.array(["a\x00", "z"], dtype=object)], ids=["list", "object"]
    )
    def test_a_cell_ending_in_nul_is_refused(self, tmp_path, cells):
        """numpy would store ``"a\\x00"`` as ``"a"``: on disk and in memory the
        append is refused before anything is written."""
        self._store(tmp_path / "ds")
        before = C.read_manifest(tmp_path / "ds")
        batch = {"dim": cells, "m": [1.0, 2.0]}
        with pytest.raises(StorageError, match="ends in NUL"):
            C.append_rows(tmp_path / "ds", batch)
        assert C.read_manifest(tmp_path / "ds") == before
        table = Table(
            "toy",
            {"dim": self.BASE, "m": np.arange(len(self.BASE), dtype=np.float64)},
            roles={"dim": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        with pytest.raises(SchemaError, match="ends in NUL"):
            table.append(batch)
        assert table.nrows == len(self.BASE)

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_a_torn_sidecar_takes_the_union(self, tmp_path, monkeypatch, as_array):
        """An append that died after rewriting a dictionary leaves a sidecar
        longer than the manifest records: known values still remap, so the
        retry re-hashes the column from chunk 0."""
        col, _ = self._store(tmp_path / "ds")

        def refuse(root, payload):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(C, "_write_manifest_atomic", refuse)
            with pytest.raises(OSError, match="disk full"):
                C.append_rows(tmp_path / "ds", {"dim": ["new"], "m": [1.0]})
        torn = np.fromfile(tmp_path / "ds" / col.categories_file, dtype=col.dtype)
        assert len(torn) == col.n_categories + 1
        cells = ["z", "a"]
        checked = np.array(cells) if as_array else cells
        got = C._encode_appended(tmp_path / "ds", col, checked)
        self._assert_same(got, C._union_encoded(torn, col.n_categories, np.asarray(cells)))
        assert got[2] is not None and got[1].tolist() == ["", "a", "b'c", "new", "z"]


class TestAppendEquivalence:
    """k sequential appends ≡ one bulk write ≡ one streamed write."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 50),
        n=st.integers(10, 120),
        chunk_rows=st.integers(1, 40),
        cuts=st.lists(st.integers(1, 119), min_size=1, max_size=4),
        writer_cuts=st.lists(st.integers(1, 119), max_size=4),
    )
    def test_property_appends_equal_bulk(self, seed, n, chunk_rows, cuts, writer_cuts):
        full = _growing_table(n, seed=seed)
        # Sorted unique cut points strictly inside [0, n) split the table
        # into 2..5 batches: batch 0 is the bulk write, the rest appends.
        points = sorted({c % (n - 1) + 1 for c in cuts})
        bounds = [0, *points, n]
        with tempfile.TemporaryDirectory() as tmp:
            bulk_dir = Path(tmp) / "bulk"
            inc_dir = Path(tmp) / "inc"
            streamed_dir = Path(tmp) / "streamed"
            C.write_table(full, bulk_dir, chunk_rows=chunk_rows)
            C.write_table(
                full.slice_rows(0, bounds[1]), inc_dir, chunk_rows=chunk_rows
            )
            for start, stop in zip(bounds[1:], bounds[2:]):
                C.append_rows(inc_dir, _columns(full, start, stop))
            # The ingester's path: a ChunkStoreWriter fed batches cut
            # anywhere, independent of both the append cuts and the grid.
            writer = C.ChunkStoreWriter(streamed_dir, full.name, chunk_rows)
            batch_bounds = sorted({0, n, *(c % (n - 1) + 1 for c in writer_cuts)})
            for column in full.schema:
                values = np.asarray(full.column(column.name))
                cats = np.unique(values) if values.dtype.kind == "U" else None
                stored = values if cats is None else np.searchsorted(cats, values)
                sink = writer.add_column(
                    column.name, values.dtype, column.role, categories=cats
                )
                for start, stop in zip(batch_bounds, batch_bounds[1:]):
                    sink.append(stored[start:stop])
            writer.finish()
            bulk = C.read_manifest(bulk_dir)
            # Whole manifests: per-chunk digests, column sha256s, digest.
            assert C.read_manifest(inc_dir) == bulk
            assert C.read_manifest(streamed_dir) == bulk
            assert all(
                len(col.chunk_sha256) == -(-n // chunk_rows) for col in bulk.columns
            )
            for col in bulk.columns:
                assert (
                    (inc_dir / "columns" / f"{col.name}.bin").read_bytes()
                    == (bulk_dir / "columns" / f"{col.name}.bin").read_bytes()
                    == (streamed_dir / "columns" / f"{col.name}.bin").read_bytes()
                )
            # Content-addressed identity: every cache key derived from the
            # fingerprint matches across the construction histories.
            assert (
                C.open_table(inc_dir).fingerprint()
                == C.open_table(bulk_dir).fingerprint()
            )


class _CountingSha256:
    """``hashlib.sha256`` that adds every byte it is fed to ``fed[0]``."""

    def __init__(self, fed: list[int], data: bytes = b"") -> None:
        self._fed = fed
        self._sha = hashlib.sha256()
        self.update(data)

    def update(self, data) -> None:
        self._fed[0] += len(data)
        self._sha.update(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class TestAppendHashesOnlyTheDelta:
    """An append hashes the tail chunk and the delta, whatever the store size."""

    CHUNK_ROWS = 256
    DELTA = 50

    def _hashed_by_append(self, path, n_chunks, monkeypatch):
        """Bytes fed to sha256 by one 50-row append to an ``n_chunks`` store."""
        # Nine rows into the last chunk: the append must re-read that tail.
        base = _table(self.CHUNK_ROWS * (n_chunks - 1) + 9, seed=n_chunks)
        C.write_table(base, path, chunk_rows=self.CHUNK_ROWS)
        before = C.read_manifest(path)
        fed = [0]
        shim = types.SimpleNamespace(
            sha256=lambda data=b"": _CountingSha256(fed, data)
        )
        with monkeypatch.context() as patch:
            patch.setattr(C, "hashlib", shim)
            after = C.append_rows(path, _columns(_table(self.DELTA, seed=1), 0, self.DELTA))
        assert [c.n_categories for c in after.columns] == [
            c.n_categories for c in before.columns
        ]  # no dictionary grew: every column took the in-place path
        return fed[0], before, after

    def test_hashed_bytes_do_not_grow_with_the_store(self, tmp_path, monkeypatch):
        small, _, small_after = self._hashed_by_append(tmp_path / "s", 10, monkeypatch)
        big, before, after = self._hashed_by_append(tmp_path / "b", 100, monkeypatch)
        manifest_bytes = (tmp_path / "b" / "manifest.json").stat().st_size
        # The store-sized terms are the manifest's own: the digest over its
        # canonical form and each column's hash over its chunk digests.
        assert abs(big - small) <= 2 * manifest_bytes
        budget = 2 * manifest_bytes
        for col in after.columns:
            stored = np.dtype(np.int32 if col.encoding == "dict32" else col.dtype)
            categories = col.n_categories * np.dtype(col.dtype).itemsize
            budget += (self.CHUNK_ROWS + self.DELTA) * stored.itemsize + categories
        assert big <= budget
        assert big < after.dataset_bytes / 8  # nowhere near a full re-hash
        # Chunks the append did not touch keep their recorded digests.
        untouched = before.n_rows // self.CHUNK_ROWS
        assert untouched == 99
        for old, new in zip(before.columns, after.columns):
            assert new.chunk_sha256[:untouched] == old.chunk_sha256[:untouched]
            assert len(new.chunk_sha256) == -(-after.n_rows // self.CHUNK_ROWS)
        assert small_after.n_rows == 9 * self.CHUNK_ROWS + 9 + self.DELTA


class TestAppendRecovery:
    """Failed manifest swaps and old-format stores converge on the bulk write."""

    @pytest.mark.parametrize("new_category", [False, True])
    def test_failed_manifest_swap_then_retry(self, tmp_path, monkeypatch, new_category):
        full = _growing_table(100, seed=3) if new_category else _table(100, seed=3)
        C.write_table(full.slice_rows(0, 70), tmp_path / "ds", chunk_rows=16)
        C.write_table(full, tmp_path / "bulk", chunk_rows=16)
        before = C.read_manifest(tmp_path / "ds")
        delta = _columns(full, 70, 100)

        def refuse(root, payload):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(C, "_write_manifest_atomic", refuse)
            with pytest.raises(OSError, match="disk full"):
                C.append_rows(tmp_path / "ds", delta)
        assert C.read_manifest(tmp_path / "ds") == before
        if not new_category:
            # In-place growth is invisible until the manifest lands.  (A
            # rewritten dictionary is the documented remaining window.)
            reopened = C.open_table(tmp_path / "ds")
            assert reopened.nrows == 70
            assert np.array_equal(
                np.asarray(reopened.column("measure")),
                np.asarray(full.column("measure"))[:70],
            )
        C.append_rows(tmp_path / "ds", delta)
        assert C.read_manifest(tmp_path / "ds") == C.read_manifest(tmp_path / "bulk")

    def test_v1_manifest_opens_and_upgrades_on_first_append(self, tmp_path):
        full = _table(100, seed=5)
        C.write_table(full.slice_rows(0, 70), tmp_path / "ds", chunk_rows=16)
        C.write_table(full, tmp_path / "bulk", chunk_rows=16)
        # Rewrite the manifest the way the v1 writer produced it: no chunk
        # digests, one sha256 over the column file (then the categories).
        manifest_path = tmp_path / "ds" / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["format"] = "seedb-chunks-v1"
        for col in payload["columns"]:
            del col["chunk_sha256"]
            whole = hashlib.sha256((tmp_path / "ds" / col["file"]).read_bytes())
            if col["categories_file"]:
                whole.update((tmp_path / "ds" / col["categories_file"]).read_bytes())
            col["sha256"] = whole.hexdigest()
        payload["digest"] = hashlib.sha256(
            C._canonical_manifest_payload(payload)
        ).hexdigest()
        manifest_path.write_text(json.dumps(payload, indent=2))

        v1 = C.read_manifest(tmp_path / "ds")
        assert v1.digest == payload["digest"]
        assert all(col.chunk_sha256 == () for col in v1.columns)
        opened = C.open_table(tmp_path / "ds")
        assert opened.nrows == 70
        assert np.array_equal(
            np.asarray(opened.column("measure")),
            np.asarray(full.column("measure"))[:70],
        )
        # The first append hashes each chunk once and lands a v2 manifest
        # indistinguishable from a bulk v2 write of the same rows.
        C.append_rows(tmp_path / "ds", _columns(full, 70, 100))
        assert json.loads(manifest_path.read_text())["format"] == C.MANIFEST_FORMAT
        assert C.read_manifest(tmp_path / "ds") == C.read_manifest(tmp_path / "bulk")


class TestReaderConsistency:
    def test_old_reader_keeps_old_view(self, tmp_path):
        table = _table(150)
        C.write_table(table, tmp_path / "ds", chunk_rows=32)
        old = C.open_table(tmp_path / "ds")
        old_fingerprint = old.fingerprint()
        before = np.asarray(old.column("measure")).copy()
        C.append_rows(tmp_path / "ds", _columns(_table(40, seed=2), 0, 40))
        # The pre-append reader is pinned to the old manifest: same row
        # count, same bytes, same identity — it never sees the new tail.
        assert old.nrows == 150
        assert np.array_equal(np.asarray(old.column("measure")), before)
        assert old.fingerprint() == old_fingerprint
        assert C.open_table(tmp_path / "ds").nrows == 190

    def test_concurrent_open_while_appending(self, tmp_path):
        """Readers opening mid-append always see a consistent prefix."""
        full = _table(400, seed=7)
        C.write_table(full, tmp_path / "ds", chunk_rows=32)
        batches = [(400 + 50 * i, 450 + 50 * i) for i in range(4)]
        extra = _table(200, seed=8)
        valid_rows = {400, 450, 500, 550, 600}
        errors: list[BaseException] = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    snapshot = C.open_table(tmp_path / "ds")
                    assert snapshot.nrows in valid_rows
                    # The first 400 rows are immutable whatever manifest
                    # the reader raced onto.
                    got = np.asarray(snapshot.column("measure"))[:400]
                    assert np.array_equal(got, np.asarray(full.column("measure")))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for start, stop in batches:
                C.append_rows(
                    tmp_path / "ds", _columns(extra, start - 400, stop - 400)
                )
        finally:
            done.set()
            for thread in threads:
                thread.join(30)
        assert not errors, errors[0]
        assert C.open_table(tmp_path / "ds").nrows == 600


class TestTableAppend:
    def test_in_memory_append_records_lineage(self):
        table = _table(80)
        old_fingerprint = table.fingerprint()
        extra = _table(8, seed=4)
        assert table.append(_columns(extra, 0, 8)) == 88
        assert table.nrows == 88
        assert table.fingerprint() != old_fingerprint
        # The old identity is remembered with the row count it covered, so
        # delta consumers can recognize the new table as an extension.
        assert table.append_lineage == {old_fingerprint: 80}

    def test_disk_backed_append_is_refused(self, tmp_path):
        C.write_table(_table(40), tmp_path / "ds")
        chunked = C.open_table(tmp_path / "ds")
        with pytest.raises(SchemaError, match="refresh_from_disk"):
            chunked.append({"dim": ["a"], "small_int": [1], "measure": [1.0]})

    def test_refresh_from_disk_round_trip(self, tmp_path):
        table = _table(100)
        C.write_table(table, tmp_path / "ds", chunk_rows=32)
        chunked = C.open_table(tmp_path / "ds")
        old_fingerprint = chunked.fingerprint()
        assert chunked.refresh_from_disk() is False  # digest unchanged
        C.append_rows(tmp_path / "ds", _columns(_table(25, seed=6), 0, 25))
        assert chunked.refresh_from_disk() is True
        assert chunked.nrows == 125
        assert chunked.append_lineage == {old_fingerprint: 100}
        assert chunked.fingerprint() != old_fingerprint
        # A refreshed-in-place table and a fresh open of the same store
        # share one identity — cross-worker cache keys must line up.
        assert chunked.fingerprint() == C.open_table(tmp_path / "ds").fingerprint()
        assert chunked.refresh_from_disk() is False  # now in sync again

    def test_refresh_requires_disk_backing(self):
        with pytest.raises(SchemaError, match="disk-backed"):
            _table(10).refresh_from_disk()
