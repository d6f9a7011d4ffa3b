"""The query layer's parquet Datasource: the files ``rd.read_parquet``
reads, planned on the driver alone.

``rd.read_parquet`` samples the encoding ratio of its files in a remote
task before it returns a Dataset, once per read. This source plans
from what the driver already has: pyarrow's file discovery and the
footers. A read task then reads its files one row group at a time."""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _read_files(files: list, columns):
    for f in files:
        pf = pq.ParquetFile(f)
        for g in range(pf.num_row_groups):
            # one thread: the task holds one CPU, as Ray Data's reader assumes
            table = pf.read_row_group(g, columns=columns, use_threads=False)
            if table.num_rows:
                yield table


class ParquetFiles(Datasource):
    """The files of parquet table ``path`` (a file or a directory), read
    with ``columns`` projected.

    The files are those ``pyarrow.parquet.ParquetDataset`` discovers, as
    Ray Data's parquet reader does: subdirectories included, names that
    start with ``_`` or ``.`` skipped. A ``key=value`` directory in a
    file's path is a hive partition, whose column Ray Data would add;
    this source raises on it instead. The read tasks carry the dataset
    schema, projected, so a table with no rows keeps its column names
    and types."""

    def __init__(self, path: str, columns=None):
        dataset = pq.ParquetDataset(path, partitioning=None)
        self._files = dataset.files
        hive = [f for f in self._files
                if any(d.count("=") == 1 for d in os.path.dirname(os.path.abspath(f)).split("/"))]
        if hive:
            raise ValueError(f"hive-partitioned parquet input: {hive} sit under key=value "
                             "directories, and the query read adds no partition columns")
        schema = dataset.schema
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns], schema.metadata)
        self._schema = schema
        self._columns = columns
        metas = [pq.read_metadata(f) for f in self._files]
        self._rows = [m.num_rows for m in metas]
        self._bytes = [sum(m.row_group(g).total_byte_size for g in range(m.num_row_groups))
                       for m in metas]

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list:
        tasks = []
        for group in np.array_split(np.arange(len(self._files)), parallelism):
            if not len(group):
                continue
            files = [self._files[i] for i in group]
            meta = BlockMetadata(num_rows=sum(self._rows[i] for i in group),
                                 size_bytes=sum(self._bytes[i] for i in group),
                                 input_files=files, exec_stats=None)
            tasks.append(ReadTask(functools.partial(_read_files, files, self._columns),
                                  meta, schema=self._schema))
        return tasks
