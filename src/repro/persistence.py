"""Saving and loading catalogs to disk.

Layout: a directory containing ``manifest.json`` (schemas, partition
ids, each table's data version, catalog settings) plus one
``<table>.npz`` per table holding its column-codec arrays
(:mod:`repro.durability.codec`; no pickling), which loading cuts back
into partitions the way a build does.

Saves are **atomic**: the snapshot is written to a hidden temp sibling
directory and swapped into place with directory renames, so a crash at
any point during :func:`save_catalog` leaves the previous good copy
loadable. Every load failure mode — missing or corrupt manifest,
truncated/corrupt ``.npz``, missing table file, unknown keys — raises
a typed :class:`~repro.errors.StorageError` rather than leaking bare
``KeyError``/``OSError``.
"""

from __future__ import annotations

import json
import os
import shutil
import zipfile
import zlib
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .catalog import Catalog
from .durability.codec import (decode_partitions, decode_schema,
                               encode_partitions, encode_schema)
from .errors import StorageError
from .storage.micropartition import partition_id_generator
from .storage.table import Table

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 2


def save_catalog(catalog: Catalog, path: str | Path,
                 extra_manifest: Mapping[str, Any] | None = None
                 ) -> None:
    """Atomically write every table of the catalog under ``path``.

    The snapshot is staged in a temp sibling directory and renamed
    into place, so an interrupted save can never clobber an existing
    snapshot at ``path``. ``extra_manifest`` entries are merged into
    the manifest (the durability layer stores its WAL sequence number
    this way).
    """
    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    staging = root.parent / f".{root.name}.tmp-save"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    manifest: dict = {
        "version": FORMAT_VERSION,
        "rows_per_partition": catalog.rows_per_partition,
        "tables": {},
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    if getattr(catalog, "sketch_config", None) is not None:
        # Sketches rebuild from the data on load, so only their
        # configuration rides the snapshot (and, via the durability
        # layer's checkpoints, survives crash recovery).
        manifest["sketches"] = catalog.sketch_config.to_manifest()
    for name, table in catalog.tables.items():
        manifest["tables"][name] = {
            "schema": encode_schema(table.schema),
            "partitions": table.partition_ids,
            "data_version": table.version,
        }
        write_table_file(staging / f"{name}.npz",
                         encode_partitions(table.schema, table.partitions))
    with open(staging / MANIFEST_NAME, "w") as handle:
        json.dump(manifest, handle, indent=2)
    if not root.exists():
        os.rename(staging, root)
        return
    # Swap: retire the old snapshot, promote the staged one. The
    # window between the two renames has no directory at ``path``;
    # the fully-atomic variant (used by checkpoints) publishes each
    # snapshot under a fresh name instead.
    backup = root.parent / f".{root.name}.old-save"
    if backup.exists():
        shutil.rmtree(backup)
    os.rename(root, backup)
    os.rename(staging, root)
    shutil.rmtree(backup)


def write_table_file(path: Path, arrays: Mapping[str, np.ndarray]
                     ) -> None:
    """``arrays`` as one ``.npz`` deflated at zlib level 1 (level 6 takes
    ~5x as long for ~6 % fewer bytes)."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                         compresslevel=1) as archive:
        for key, array in arrays.items():
            with archive.open(f"{key}.npy", "w",
                              force_zip64=True) as member:
                np.lib.format.write_array(member, array,
                                          allow_pickle=False)


def load_manifest(path: str | Path) -> dict:
    """Read and validate a snapshot's ``manifest.json``.

    Raises:
        StorageError: missing directory/manifest, undecodable JSON,
            unsupported format version, or a malformed table map.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no catalog manifest at {manifest_path}")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(
            f"unreadable catalog manifest at {manifest_path}: "
            f"{exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("version") != FORMAT_VERSION:
        version = manifest.get("version") \
            if isinstance(manifest, dict) else manifest
        raise StorageError(
            f"unsupported catalog format version {version!r}")
    if not isinstance(manifest.get("tables"), dict):
        raise StorageError(
            f"catalog manifest at {manifest_path} has no table map")
    return manifest


def load_tables(path: str | Path, manifest: Mapping[str, Any]
                ) -> list[Table]:
    """Reconstruct every table of a snapshot, with typed failures.

    Raises:
        StorageError: malformed manifest entries, a missing or
            truncated ``.npz``, or partition keys absent from it.
    """
    root = Path(path)
    tables = []
    for name, entry in manifest["tables"].items():
        tables.append(_load_table(root, name, entry))
    return tables


def _load_table(root: Path, name: str, entry: Mapping[str, Any]
                ) -> Table:
    try:
        schema = decode_schema(entry["schema"])
        listed = [int(pid) for pid in entry["partitions"]]
        # A manifest without a data version reads as 1.
        version = int(entry.get("data_version", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(
            f"malformed manifest entry for table {name!r}: "
            f"{exc!r}") from exc
    npz_path = root / f"{name}.npz"
    try:
        with np.load(npz_path, allow_pickle=False) as data:
            if data["ids"].tolist() != listed:
                raise ValueError("its partition ids differ from the "
                                 "manifest's")
            partitions = decode_partitions(schema, data)
    except (OSError, EOFError, KeyError, ValueError, TypeError,
            NotImplementedError, zipfile.BadZipFile, zlib.error) as exc:
        raise StorageError(
            f"failed to load table {name!r} from {npz_path}: "
            f"{exc!r}") from exc
    return Table(name, schema, partitions, version=version)


def load_catalog(path: str | Path, **catalog_kwargs) -> Catalog:
    """Reconstruct a catalog saved with :func:`save_catalog`.

    Partition ids are preserved and the global id generator is bumped
    past them, so tables created afterwards cannot collide.

    Raises:
        StorageError: for every failure mode — missing or corrupt
            manifest, unsupported version, missing/truncated table
            files, or manifest keys absent from them.
    """
    root = Path(path)
    manifest = load_manifest(root)
    catalog = Catalog(
        rows_per_partition=manifest.get("rows_per_partition", 1000),
        **catalog_kwargs)
    sketch_manifest = manifest.get("sketches")
    if sketch_manifest:
        # Enable before table creation so registration builds the
        # sketches as each partition lands; a malformed entry fails
        # open (the catalog simply loads without sketches).
        try:
            from .pruning.sketches import SketchConfig

            catalog.enable_sketches(
                SketchConfig.from_manifest(sketch_manifest))
        except Exception:  # noqa: BLE001 - sketches are best-effort
            pass
    max_id = 0
    for table in load_tables(root, manifest):
        for partition_id in table.partition_ids:
            max_id = max(max_id, partition_id)
        catalog.create_table(table)
    partition_id_generator.ensure_floor(max_id)
    return catalog
