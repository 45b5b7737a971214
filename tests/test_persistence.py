"""Tests for catalog persistence (save/load)."""

import datetime

import pytest

from repro import Catalog, DataType, Layout, Schema
from repro.errors import StorageError
from repro import persistence
from repro.persistence import FORMAT_VERSION, load_catalog, save_catalog


def make_catalog():
    catalog = Catalog(rows_per_partition=25)
    schema = Schema.of(ts=DataType.INTEGER, name=DataType.VARCHAR,
                       score=DataType.DOUBLE, flag=DataType.BOOLEAN,
                       day=DataType.DATE)
    rows = []
    for i in range(100):
        rows.append((
            i,
            None if i % 10 == 0 else f"name-{i}",
            None if i % 7 == 0 else i * 1.5,
            i % 2 == 0,
            datetime.date(2024, 1, 1) + datetime.timedelta(days=i),
        ))
    catalog.create_table_from_rows("events", schema, rows,
                                   layout=Layout.sorted_by("ts"))
    catalog.create_table_from_rows(
        "dims", Schema.of(k=DataType.INTEGER, v=DataType.VARCHAR),
        [(i, f"v{i}") for i in range(10)])
    return catalog


class TestRoundtrip:
    def test_rows_survive(self, tmp_path):
        original = make_catalog()
        save_catalog(original, tmp_path / "cat")
        loaded = load_catalog(tmp_path / "cat")
        for name in ("events", "dims"):
            assert loaded.tables[name].to_rows() == \
                original.tables[name].to_rows()

    def test_partition_structure_preserved(self, tmp_path):
        original = make_catalog()
        original.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        assert loaded.tables["events"].partition_ids == \
            original.tables["events"].partition_ids
        assert loaded.rows_per_partition == 25

    def test_pruning_works_after_load(self, tmp_path):
        original = make_catalog()
        original.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        result = loaded.sql("SELECT * FROM events WHERE ts >= 90")
        assert result.num_rows == 10
        assert result.profile.scans[0].filter_result.after == 1

    def test_queries_agree(self, tmp_path):
        original = make_catalog()
        original.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        sql = ("SELECT * FROM events WHERE flag = TRUE "
               "ORDER BY score DESC LIMIT 5")
        assert loaded.sql(sql).rows == original.sql(sql).rows

    def test_new_partitions_do_not_collide(self, tmp_path):
        original = make_catalog()
        original.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        existing = set(loaded.tables["events"].partition_ids)
        new_ids = loaded.insert("events",
                                [(1000, "x", 1.0, True,
                                  datetime.date(2025, 1, 1))])
        assert not (set(new_ids) & existing)

    def test_table_versions_survive(self, tmp_path):
        """The caches key on the version: it must not restart at 1."""
        original = make_catalog()
        original.insert("dims", [(10, "v10")])
        original.sql("DELETE FROM dims WHERE k = 3")
        assert original.table_versions(["events", "dims"]) == \
            {"events": 1, "dims": 3}
        original.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        assert loaded.table_versions(["events", "dims"]) == \
            {"events": 1, "dims": 3}
        loaded.insert("dims", [(11, "v11")])
        assert loaded.table_version("dims") == 4

    def test_snapshot_without_versions_reads_as_one(self, tmp_path):
        import json

        original = make_catalog()
        original.insert("dims", [(10, "v10")])
        original.save(tmp_path / "cat")
        manifest_path = tmp_path / "cat" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["tables"].values():
            del entry["data_version"]
        manifest_path.write_text(json.dumps(manifest))
        assert Catalog.load(tmp_path / "cat").table_version("dims") == 1

    def test_empty_strings_and_nulls(self, tmp_path):
        catalog = Catalog(rows_per_partition=4)
        schema = Schema.of(s=DataType.VARCHAR)
        catalog.create_table_from_rows(
            "t", schema, [("",), (None,), ("x",), ("",)])
        catalog.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        assert loaded.tables["t"].to_rows() == \
            [("",), (None,), ("x",), ("",)]


    def test_varchar_nul_suffixes_survive(self, tmp_path):
        """Fixed-width unicode storage used to drop trailing NULs."""
        catalog = Catalog(rows_per_partition=1)
        catalog.create_table_from_rows(
            "t", Schema.of(k=DataType.INTEGER, s=DataType.VARCHAR),
            [(1, "a"), (5, "a\x00"), (6, "\x00"), (7, "\ud800")])
        catalog.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        table, original = loaded.tables["t"], catalog.tables["t"]
        assert table.to_rows() == original.to_rows()
        assert [p.checksum for p in table.partitions] == \
            [p.checksum for p in original.partitions]
        assert loaded.sql(
            "SELECT count(*) AS n FROM t WHERE s = 'a\x00'").rows == [(1,)]


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            load_catalog(tmp_path / "nope")

    def test_bad_version(self, tmp_path):
        import json

        directory = tmp_path / "cat"
        directory.mkdir()
        with open(directory / "manifest.json", "w") as handle:
            json.dump({"version": 99, "tables": {}}, handle)
        with pytest.raises(StorageError):
            load_catalog(directory)

    def test_version_one_snapshot_is_refused(self, tmp_path):
        import json

        save_catalog(make_catalog(), tmp_path / "cat")
        manifest_path = tmp_path / "cat" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError,
                           match="unsupported catalog format version 1"):
            load_catalog(tmp_path / "cat")

    def test_damaged_table_file_fails_typed(self, tmp_path):
        """Flipped or cut bytes anywhere in a table file either leave
        its contents intact or raise StorageError: corrupt deflate
        streams, short members and bogus zip headers used to escape as
        zlib.error, EOFError or NotImplementedError."""
        import random
        import shutil

        original = make_catalog()
        save_catalog(original, tmp_path / "good")
        data = (tmp_path / "good" / "events.npz").read_bytes()
        rng = random.Random(7)
        for trial in range(300):
            damaged = bytearray(data)
            if trial % 2:
                damaged = damaged[:rng.randrange(len(damaged))]
            else:
                for _ in range(rng.randint(1, 4)):
                    damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            shutil.rmtree(tmp_path / "bad", ignore_errors=True)
            shutil.copytree(tmp_path / "good", tmp_path / "bad")
            (tmp_path / "bad" / "events.npz").write_bytes(bytes(damaged))
            try:
                loaded = load_catalog(tmp_path / "bad")
            except StorageError as exc:
                assert "events" in str(exc)
            else:
                assert loaded.tables["events"].to_rows() == \
                    original.tables["events"].to_rows()

    def test_dml_after_load(self, tmp_path):
        original = make_catalog()
        original.save(tmp_path / "cat")
        loaded = Catalog.load(tmp_path / "cat")
        from repro.expr.ast import Compare, col, lit

        deleted = loaded.delete_where(
            "events", Compare("<", col("ts"), lit(10)))
        assert deleted == 10
        assert loaded.sql("SELECT count(*) AS n FROM events") \
            .rows == [(90,)]


class TestAtomicSave:
    def test_crash_mid_resave_preserves_old_snapshot(
            self, tmp_path, monkeypatch):
        """Regression: ``save_catalog`` used to write into the target
        directory in place, so dying mid-save left a half-written,
        unloadable snapshot. Now the old copy survives any crash."""
        original = make_catalog()
        save_catalog(original, tmp_path / "cat")
        before_events = original.tables["events"].to_rows()

        # Grow the catalog, then kill the re-save midway through
        # writing its second table.
        original.insert("dims", [(100, "added-after-save")])
        real_write = persistence.write_table_file
        calls = {"n": 0}

        def dying_write(path, arrays):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OSError("disk full mid-save")
            return real_write(path, arrays)

        monkeypatch.setattr(persistence, "write_table_file", dying_write)
        with pytest.raises(OSError):
            save_catalog(original, tmp_path / "cat")
        monkeypatch.undo()

        # The pre-save snapshot is intact and loadable.
        loaded = load_catalog(tmp_path / "cat")
        assert loaded.tables["events"].to_rows() == before_events
        assert len(loaded.tables["dims"].to_rows()) == 10

        # The leftover staging directory does not poison a retry.
        save_catalog(original, tmp_path / "cat")
        retried = load_catalog(tmp_path / "cat")
        assert len(retried.tables["dims"].to_rows()) == 11

    def test_crash_during_first_save_leaves_no_target(
            self, tmp_path, monkeypatch):
        original = make_catalog()

        def dying_write(path, arrays):
            raise OSError("disk full")

        monkeypatch.setattr(persistence, "write_table_file", dying_write)
        with pytest.raises(OSError):
            save_catalog(original, tmp_path / "cat")
        monkeypatch.undo()
        assert not (tmp_path / "cat").exists()
        with pytest.raises(StorageError):
            load_catalog(tmp_path / "cat")
        save_catalog(original, tmp_path / "cat")  # retry succeeds
        assert load_catalog(tmp_path / "cat").tables.keys() == \
            original.tables.keys()


class TestLoadFailureModes:
    """Every broken-snapshot shape raises a typed StorageError, never
    a bare KeyError/OSError/BadZipFile."""

    def _saved(self, tmp_path):
        save_catalog(make_catalog(), tmp_path / "cat")
        return tmp_path / "cat"

    def test_truncated_npz(self, tmp_path):
        root = self._saved(tmp_path)
        npz = root / "events.npz"
        npz.write_bytes(npz.read_bytes()[:100])
        with pytest.raises(StorageError, match="events"):
            load_catalog(root)

    def test_corrupt_npz(self, tmp_path):
        root = self._saved(tmp_path)
        (root / "events.npz").write_bytes(b"this is not a zip file")
        with pytest.raises(StorageError, match="events"):
            load_catalog(root)

    def test_missing_table_file(self, tmp_path):
        root = self._saved(tmp_path)
        (root / "events.npz").unlink()
        with pytest.raises(StorageError, match="events"):
            load_catalog(root)

    def test_undecodable_manifest_json(self, tmp_path):
        root = self._saved(tmp_path)
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError, match="manifest"):
            load_catalog(root)

    def test_manifest_not_a_mapping(self, tmp_path):
        import json

        root = self._saved(tmp_path)
        (root / "manifest.json").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(StorageError, match="version"):
            load_catalog(root)

    def test_manifest_without_table_map(self, tmp_path):
        import json

        root = self._saved(tmp_path)
        (root / "manifest.json").write_text(
            json.dumps({"version": FORMAT_VERSION, "tables": "oops"}))
        with pytest.raises(StorageError, match="table map"):
            load_catalog(root)

    def test_manifest_references_key_absent_from_npz(self, tmp_path):
        import json

        root = self._saved(tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["tables"]["events"]["partitions"].append(999_999)
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="events"):
            load_catalog(root)

    def test_malformed_schema_entry(self, tmp_path):
        import json

        root = self._saved(tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["tables"]["events"]["schema"] = [["only-a-name"]]
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="malformed manifest"):
            load_catalog(root)

    def test_unknown_dtype_in_schema(self, tmp_path):
        import json

        root = self._saved(tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["tables"]["events"]["schema"][0][1] = "quaternion"
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="malformed manifest"):
            load_catalog(root)
