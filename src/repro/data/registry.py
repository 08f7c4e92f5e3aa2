"""Dataset registry: build any Table-1 dataset by name.

Row counts are scale-controllable via the ``SEEDB_SCALE`` environment
variable or an explicit ``scale=`` argument:

* ``smoke`` — tiny tables for fast CI runs,
* ``small`` — laptop-friendly defaults (AIR scaled to 300K rows),
* ``full``  — the paper's published row counts (AIR = 6M; AIR10 is capped at
  12M rather than 60M because a 60M-row in-memory table exceeds laptop RAM —
  the 10x-scaling *trend* of Figure 5 is preserved by the AIR→AIR10 ratio).

Beyond the built-in surrogates, on-disk chunked datasets (directories
written by :mod:`repro.data.ingest` / :mod:`repro.db.chunks`) can be
registered at runtime with :func:`register_on_disk`; they build as
memory-mapped tables that the engine streams chunk-at-a-time, so they may
exceed RAM.

The inventory report (:func:`table_one_inventory`) regenerates paper
Table 1's rows.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.data import real, synthetic
from repro.db.chunks import ChunkManifest, read_manifest
from repro.db.expressions import Comparison, Expression, eq
from repro.db.table import Table
from repro.exceptions import DatasetError

Scale = str
_VALID_SCALES = ("smoke", "small", "full")


def current_scale(default: Scale = "small") -> Scale:
    """Scale from ``SEEDB_SCALE`` env var, else ``default``."""
    scale = os.environ.get("SEEDB_SCALE", default).lower()
    if scale not in _VALID_SCALES:
        raise DatasetError(
            f"SEEDB_SCALE must be one of {_VALID_SCALES}, got {scale!r}"
        )
    return scale


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: how to build a dataset and how to query it."""

    name: str
    description: str
    builder: Callable[[int, int], Table]  # (n_rows, seed) -> Table
    rows_by_scale: dict[Scale, int]
    split_column: str
    target_value: str
    other_value: str
    #: Row count the paper reports (for the Table 1 inventory).
    paper_rows: int

    def build(self, seed: int = 0, scale: Scale | None = None, n_rows: int | None = None) -> Table:
        rows = n_rows if n_rows is not None else self.rows_by_scale[scale or current_scale()]
        return self.builder(rows, seed)

    def target_predicate(self) -> Expression:
        """The analyst's query Q selecting the target slice D_Q."""
        return eq(self.split_column, self.target_value)

    def complement_predicate(self) -> Comparison:
        """Selects D - D_Q (the paper's complement reference option)."""
        return eq(self.split_column, self.other_value)


def _real_builder(recipe: real.RealRecipe) -> Callable[[int, int], Table]:
    def build(n_rows: int, seed: int) -> Table:
        return real.build_real(recipe, seed=seed, n_rows=n_rows)

    return build


def _syn_builder(n_rows: int, seed: int) -> Table:
    return synthetic.make_syn(n_rows=n_rows, seed=seed)


def _syn_star_builder(distinct: int) -> Callable[[int, int], Table]:
    def build(n_rows: int, seed: int) -> Table:
        return synthetic.make_syn_star(distinct, n_rows=n_rows, seed=seed)

    return build


DATASETS: dict[str, DatasetSpec] = {
    "syn": DatasetSpec(
        name="syn",
        description="Randomly distributed, varying # distinct values",
        builder=_syn_builder,
        rows_by_scale={"smoke": 5_000, "small": 100_000, "full": 1_000_000},
        split_column=synthetic.SPLIT_COLUMN,
        target_value=synthetic.TARGET_VALUE,
        other_value=synthetic.REFERENCE_VALUE,
        paper_rows=1_000_000,
    ),
    "syn_star_10": DatasetSpec(
        name="syn_star_10",
        description="Randomly distributed, 10 distinct values/dim",
        builder=_syn_star_builder(10),
        rows_by_scale={"smoke": 5_000, "small": 100_000, "full": 1_000_000},
        split_column=synthetic.SPLIT_COLUMN,
        target_value=synthetic.TARGET_VALUE,
        other_value=synthetic.REFERENCE_VALUE,
        paper_rows=1_000_000,
    ),
    "syn_star_100": DatasetSpec(
        name="syn_star_100",
        description="Randomly distributed, 100 distinct values/dim",
        builder=_syn_star_builder(100),
        rows_by_scale={"smoke": 5_000, "small": 100_000, "full": 1_000_000},
        split_column=synthetic.SPLIT_COLUMN,
        target_value=synthetic.TARGET_VALUE,
        other_value=synthetic.REFERENCE_VALUE,
        paper_rows=1_000_000,
    ),
    "bank": DatasetSpec(
        name="bank",
        description="Customer loan dataset",
        builder=_real_builder(real.BANK_RECIPE),
        rows_by_scale={"smoke": 4_000, "small": 40_000, "full": 40_000},
        split_column=real.BANK_RECIPE.split_column,
        target_value=real.BANK_RECIPE.target_value,
        other_value=real.BANK_RECIPE.other_value,
        paper_rows=40_000,
    ),
    "diab": DatasetSpec(
        name="diab",
        description="Hospital data about diabetic patients",
        builder=_real_builder(real.DIAB_RECIPE),
        rows_by_scale={"smoke": 5_000, "small": 100_000, "full": 100_000},
        split_column=real.DIAB_RECIPE.split_column,
        target_value=real.DIAB_RECIPE.target_value,
        other_value=real.DIAB_RECIPE.other_value,
        paper_rows=100_000,
    ),
    "air": DatasetSpec(
        name="air",
        description="Airline delays dataset",
        builder=_real_builder(real.AIR_RECIPE),
        rows_by_scale={"smoke": 20_000, "small": 300_000, "full": 6_000_000},
        split_column=real.AIR_RECIPE.split_column,
        target_value=real.AIR_RECIPE.target_value,
        other_value=real.AIR_RECIPE.other_value,
        paper_rows=6_000_000,
    ),
    "air10": DatasetSpec(
        name="air10",
        description="Airline dataset scaled 10X",
        builder=_real_builder(real.AIR_RECIPE),
        rows_by_scale={"smoke": 200_000, "small": 3_000_000, "full": 12_000_000},
        split_column=real.AIR_RECIPE.split_column,
        target_value=real.AIR_RECIPE.target_value,
        other_value=real.AIR_RECIPE.other_value,
        paper_rows=60_000_000,
    ),
    "census": DatasetSpec(
        name="census",
        description="Census data",
        builder=_real_builder(real.CENSUS_RECIPE),
        rows_by_scale={"smoke": 3_000, "small": 21_000, "full": 21_000},
        split_column=real.CENSUS_RECIPE.split_column,
        target_value=real.CENSUS_RECIPE.target_value,
        other_value=real.CENSUS_RECIPE.other_value,
        paper_rows=21_000,
    ),
    "housing": DatasetSpec(
        name="housing",
        description="Housing prices",
        builder=_real_builder(real.HOUSING_RECIPE),
        rows_by_scale={"smoke": 500, "small": 500, "full": 500},
        split_column=real.HOUSING_RECIPE.split_column,
        target_value=real.HOUSING_RECIPE.target_value,
        other_value=real.HOUSING_RECIPE.other_value,
        paper_rows=500,
    ),
    "movies": DatasetSpec(
        name="movies",
        description="Movie sales",
        builder=_real_builder(real.MOVIES_RECIPE),
        rows_by_scale={"smoke": 1_000, "small": 1_000, "full": 1_000},
        split_column=real.MOVIES_RECIPE.split_column,
        target_value=real.MOVIES_RECIPE.target_value,
        other_value=real.MOVIES_RECIPE.other_value,
        paper_rows=1_000,
    ),
}


# --------------------------------------------------------------------------- #
# on-disk chunked datasets (runtime-registered)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class OnDiskSpec:
    """Registry entry for an on-disk chunked dataset directory.

    Built by :func:`register_on_disk` from the directory's manifest.
    ``build`` opens the dataset as a memory-mapped table — ``seed``,
    ``scale``, and ``n_rows`` are accepted for interface compatibility with
    :class:`DatasetSpec` but ignored (the data on disk *is* the dataset).
    The split attribute is optional: CSV-ingested datasets without one
    require the caller to supply an explicit target predicate.
    """

    name: str
    description: str
    path: str
    n_rows: int
    chunk_rows: int
    split_column: str | None
    target_value: str | None
    other_value: str | None
    digest: str

    #: Mirrors :class:`DatasetSpec` for inventory/service consumers.
    @property
    def paper_rows(self) -> int:
        return self.n_rows

    @property
    def on_disk(self) -> bool:
        return True

    def build(
        self,
        seed: int = 0,
        scale: Scale | None = None,
        n_rows: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> Table:
        from repro.db.chunks import open_table

        return open_table(self.path, memory_budget_bytes=memory_budget_bytes)

    def target_predicate(self) -> Expression:
        """The analyst's query Q selecting the target slice D_Q."""
        if self.split_column is None or self.target_value is None:
            raise DatasetError(
                f"on-disk dataset {self.name!r} has no split attribute; "
                "supply an explicit target predicate"
            )
        return eq(self.split_column, self.target_value)

    def complement_predicate(self) -> Comparison:
        """Selects D - D_Q (the paper's complement reference option)."""
        if self.split_column is None or self.other_value is None:
            raise DatasetError(
                f"on-disk dataset {self.name!r} has no split attribute; "
                "supply an explicit reference predicate"
            )
        return eq(self.split_column, self.other_value)


_ON_DISK: dict[str, OnDiskSpec] = {}
_ON_DISK_LOCK = threading.Lock()


def register_on_disk(
    path: str | Path,
    name: str | None = None,
    *,
    manifest: ChunkManifest | None = None,
) -> OnDiskSpec:
    """Register a chunk-store directory as a buildable dataset.

    The directory's ``manifest.json`` supplies the dataset name (unless
    overridden), row count, chunking, and optional split attribute;
    ``manifest`` is that manifest when the caller already parsed it (an
    append returns its new one), otherwise it is read here.
    Re-registering the same name with the same manifest digest is a no-op,
    and the same *directory* with a different digest updates the entry in
    place (the store was appended to — see
    :func:`repro.db.chunks.append_rows`); a different directory under the
    same name (or a clash with a built-in name) is an error.  Returns the
    registered spec.
    """
    if manifest is None:
        manifest = read_manifest(path)
    key = (name or manifest.name).lower()
    if key in DATASETS:
        raise DatasetError(
            f"cannot register on-disk dataset {key!r}: name is taken by a "
            "built-in dataset"
        )
    entry = OnDiskSpec(
        name=key,
        description=manifest.description or f"on-disk dataset at {path}",
        path=str(path),
        n_rows=manifest.n_rows,
        chunk_rows=manifest.chunk_rows,
        split_column=manifest.split_column,
        target_value=manifest.target_value,
        other_value=manifest.other_value,
        digest=manifest.digest,
    )
    with _ON_DISK_LOCK:
        existing = _ON_DISK.get(key)
        if (
            existing is not None
            and existing.digest != entry.digest
            and existing.path != entry.path
            and Path(existing.path).resolve() != Path(path).resolve()
        ):
            raise DatasetError(
                f"on-disk dataset {key!r} is already registered with "
                "different contents"
            )
        _ON_DISK[key] = entry
    return entry


def refresh_on_disk(name: str, *, manifest: ChunkManifest | None = None) -> OnDiskSpec:
    """Re-sync a registered on-disk dataset's entry after an append.

    Rebuilds the registry entry from the directory's current manifest (new
    row count, new digest) without changing which directory the name
    points at: ``manifest`` when the caller holds it (the one the append
    returned, handed to the engines too), else ``manifest.json`` re-read.
    Returns the updated spec; raises :class:`DatasetError` if ``name`` has
    no on-disk registration.
    """
    key = name.lower()
    with _ON_DISK_LOCK:
        existing = _ON_DISK.get(key)
    if existing is None:
        raise DatasetError(f"no on-disk dataset {name!r} is registered")
    return register_on_disk(existing.path, name=key, manifest=manifest)


def unregister_on_disk(name: str) -> bool:
    """Remove an on-disk registration; returns whether it existed."""
    with _ON_DISK_LOCK:
        return _ON_DISK.pop(name.lower(), None) is not None


def on_disk_datasets() -> dict[str, OnDiskSpec]:
    """Snapshot of the currently registered on-disk datasets."""
    with _ON_DISK_LOCK:
        return dict(_ON_DISK)


def available_datasets() -> list[str]:
    """Every buildable dataset name: built-ins plus on-disk registrations."""
    with _ON_DISK_LOCK:
        return sorted(set(DATASETS) | set(_ON_DISK))


def spec(name: str) -> DatasetSpec | OnDiskSpec:
    built_in = DATASETS.get(name.lower())
    if built_in is not None:
        return built_in
    with _ON_DISK_LOCK:
        on_disk = _ON_DISK.get(name.lower())
    if on_disk is not None:
        return on_disk
    raise DatasetError(
        f"unknown dataset {name!r}; available: {available_datasets()}"
    )


def build(name: str, seed: int = 0, scale: Scale | None = None, n_rows: int | None = None) -> Table:
    """Build a registered dataset by name."""
    return spec(name).build(seed=seed, scale=scale, n_rows=n_rows)


def build_info(
    name: str, seed: int = 0, scale: Scale | None = None, n_rows: int | None = None
) -> tuple[Table, "DatasetSpec | OnDiskSpec"]:
    """Build a dataset and return it together with its registry spec."""
    dataset_spec = spec(name)
    return dataset_spec.build(seed=seed, scale=scale, n_rows=n_rows), dataset_spec


def table_one_inventory(scale: Scale | None = None, seed: int = 0) -> list[dict[str, object]]:
    """Regenerate the paper's Table 1 rows for the built datasets."""
    from repro.db.catalog import TableMeta

    rows = []
    for name, dataset_spec in DATASETS.items():
        table = dataset_spec.build(seed=seed, scale=scale)
        meta = TableMeta.of(table)
        rows.append(
            {
                "name": name.upper(),
                "description": dataset_spec.description,
                "rows": meta.n_rows,
                "paper_rows": dataset_spec.paper_rows,
                "|A|": meta.n_dimensions,
                "|M|": meta.n_measures,
                "views": meta.n_views(),
                "size_mb": round(meta.size_mb, 2),
            }
        )
    return rows
