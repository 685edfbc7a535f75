"""Hive-partitioned parquet writes beyond pyarrow's 1024-partition cap.

``Dataset.write_parquet(partition_cols=...)`` routes through Ray's
``ParquetDatasink``, whose ``pyarrow.dataset.write_dataset`` call leaves
``max_partitions`` at the pyarrow default (1024). A 2560-partition table
— exactly the "partitions scale with data" rule at 100M+ events — dies
with ``Fragment would be written into N partitions. This exceeds the
maximum of 1024``. This module subclasses the sink to raise the cap;
everything else (hive layout, basename template, row-group sizing,
existing-data behavior) is the parent's behavior, so the on-disk layout
is bit-compatible with plain ``write_parquet``.

It serves only the writes that really move rows between partitions:
epoch ingest (``apply_epoch`` and ``merge``), the one-time base
bucketization and ``repartition``, plus the exports. ``compact()`` does
not use it: its fold tasks already hold each partition's rows and write
the snapshot files themselves.

Pinned to ray 2.49.2 (this environment's fixed version): the override
duplicates the parent's ``_write_parquet_files`` body with one added
argument. If the internal API shifts on an upgrade, the loud import
failure here is the desired signal.
"""

from __future__ import annotations

from typing import Any, Dict, List

import ray.data
from ray.data._internal.datasource.parquet_datasink import (
    EXISTING_DATA_BEHAVIOR_MAP,
    FILE_FORMAT,
    ParquetDatasink,
    choose_row_group_limits,
)

MAX_PARTITIONS = 1 << 20


class WidePartitionParquetDatasink(ParquetDatasink):
    """ParquetDatasink with ``max_partitions`` raised to 2^20."""

    def _write_parquet_files(
        self,
        tables: List["pyarrow.Table"],  # noqa: F821
        filename: str,
        output_schema: "pyarrow.Schema",  # noqa: F821
        write_uuid: str,
        write_kwargs: Dict[str, Any],
    ) -> None:
        import pyarrow.dataset as ds

        for idx, table in enumerate(tables):
            if output_schema and not table.schema.equals(output_schema):
                table = table.cast(output_schema)
            tables[idx] = table

        row_group_size = write_kwargs.pop("row_group_size", None)
        existing_data_behavior = EXISTING_DATA_BEHAVIOR_MAP.get(
            self.mode, "overwrite_or_ignore"
        )
        (
            min_rows_per_group,
            max_rows_per_group,
            max_rows_per_file,
        ) = choose_row_group_limits(
            row_group_size,
            min_rows_per_file=self.min_rows_per_file,
            max_rows_per_file=self.max_rows_per_file,
        )
        basename_template = self._get_basename_template(filename, write_uuid)

        ds.write_dataset(
            data=tables,
            base_dir=self.path,
            schema=output_schema,
            basename_template=basename_template,
            filesystem=self.filesystem,
            partitioning=self.partition_cols,
            format=FILE_FORMAT,
            existing_data_behavior=existing_data_behavior,
            partitioning_flavor="hive",
            use_threads=True,
            min_rows_per_group=min_rows_per_group,
            max_rows_per_group=max_rows_per_group,
            max_rows_per_file=max_rows_per_file,
            max_partitions=MAX_PARTITIONS,  # the one change vs parent
            file_options=ds.ParquetFileFormat().make_write_options(
                **write_kwargs),
        )


#: co-locate rows by partition key before writing when the layout has
#: more partitions than this (ingest, base bucketize and repartition —
#: compaction writes per-partition files from its fold tasks and never
#: reaches this sort): a blockwise hive write creates one file
#: per (block, touched partition) — at 2560 partitions the 100M-event
#: probe produced 3M tiny files before the fix. The sort is a single
#: range exchange that caps file count at ~max(blocks, partitions).
#: Threshold 1024: at or below it the blockwise exchange-free write is
#: measurably cheaper end-to-end (the 40M-event / 1024-partition probe
#: ingests 46 s unsorted vs 89 s sorted — tmpfs absorbs the file
#: count, and the fold's read-side saving doesn't repay the sort),
#: while above it pyarrow's own max_partitions ceiling marks the
#: design point where per-write-task file explosion stops being
#: tenable on any filesystem.
SORT_ABOVE_PARTITIONS = 1024


def write_parquet_partitioned(
    dataset: "ray.data.Dataset",
    path: str,
    partition_cols: list[str],
    row_group_size: int | None = None,
    expected_partitions: int | None = None,
) -> None:
    """Drop-in for ``ds.write_parquet(path, partition_cols=...,
    row_group_size=...)`` that survives >1024 distinct partition values
    in one write task. Pass ``expected_partitions`` (the layout's
    physical partition count) so wide layouts co-locate rows by the
    partition key first — order within a partition is semantically
    irrelevant to every consumer (fold orders by lsn; base dedup sorts
    explicitly)."""
    if (expected_partitions is not None
            and expected_partitions > SORT_ABOVE_PARTITIONS):
        dataset = dataset.sort(partition_cols[0])
    arrow_args: Dict[str, Any] = {}
    if row_group_size is not None:
        arrow_args["row_group_size"] = row_group_size
    sink = WidePartitionParquetDatasink(
        path, partition_cols=partition_cols,
        arrow_parquet_args=arrow_args)
    dataset.write_datasink(sink)
