"""CSV ingestion, quantile grouping, and pairwise divergence matrices.

``load_csv`` reads a header CSV in chunks of rows taken apart into columns,
parsing only the selected cells, and forms groups from one column: its
distinct labels, or, given cut probabilities, quantile bands of its numeric
values.  Quantiles use linear interpolation of the empirical cdf, read off
the sorted column with numpy's arithmetic (``np.quantile`` bit for bit,
without importing ``numpy.ma``); a value equal to a cut belongs to the lower
interval, so labels read "[lo,q1]", "(q1,q2]", ..., "(qk,hi]" and membership
partitions the retained rows.  ``pairwise_matrix`` selects each group's
Sheather-Jones bandwidth, naming the group in a selection's package error
(any other exception propagates as raised), and estimates every pair.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Iterator

import numpy as np

from .errors import CsvParseError, ExtropyError, InvalidParameter, MissingColumn, TooFewObservations
from .estimation import SampleBatch, _sorted_quantile, estimate_pairwise_relative_extropy, sheather_jones_bandwidth

__all__ = [
    "GroupedDataset",
    "DivergenceMatrix",
    "load_csv",
    "load_sample",
    "pairwise_matrix",
]

MIN_GROUP_SIZE = 5
# rows read and taken apart into columns at a time: loading 8,000 rows peaks at
# 0.64 MB under tracemalloc in chunks of 256, at 1.9 MB in chunks of 4,096
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class GroupedDataset:
    """Labeled sample groups and the count of rows dropped for missing cells."""

    groups: tuple[tuple[str, SampleBatch], ...]
    dropped_rows: int

    def __post_init__(self):
        if len(self.groups) < 2:
            raise TooFewObservations("<dataset>", len(self.groups), 2)
        labels = [label for label, _ in self.groups]
        if len(set(labels)) != len(labels):
            raise InvalidParameter(f"duplicate group labels: {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.groups)


@dataclass(frozen=True)
class DivergenceMatrix:
    """Symmetric pairwise relative-extropy estimates over labeled groups."""

    labels: tuple[str, ...]
    values: np.ndarray
    bandwidths: tuple[float, ...] = field(default=())

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        k = len(self.labels)
        if v.shape != (k, k):
            raise InvalidParameter(f"matrix shape {v.shape} does not match {k} labels")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise InvalidParameter("matrix not symmetric within 1e-12")
        if np.max(np.abs(np.diag(v))) > 0.0:
            raise InvalidParameter("matrix diagonal must be exactly zero")
        if np.min(v) < 0.0:
            raise InvalidParameter("off-diagonal entries must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _fmt(x: float) -> str:
    return format(x, "g")


def _quantile_labels(edges: list[float]) -> list[str]:
    labels = [f"[{_fmt(edges[0])},{_fmt(edges[1])}]"]
    for lo, hi in zip(edges[1:], edges[2:]):
        labels.append(f"({_fmt(lo)},{_fmt(hi)}]")
    return labels


def _chunks(path: str, columns: list[str], size: int) -> Iterator[tuple[int, list[list[str]]]]:
    """The stripped cells of ``columns``, ``size`` rows at a time, with the line each chunk ends on.

    As in ``csv.DictReader`` rows, blank lines are skipped, a short row's
    missing cell reads "" and a repeated header name reads its last column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in columns:
            if col not in header:
                raise MissingColumn(f"column {col!r} not in header {header} of {path}")
        index = [len(header) - 1 - header[::-1].index(col) for col in columns]
        rows = filter(None, reader)
        while chunk := list(islice(rows, size)):
            yield reader.line_num, [[row[i].strip() if i < len(row) else "" for row in chunk] for i in index]


def _raise_first_bad(path: str, columns: list[str], parsed: int) -> None:
    """Raise ``CsvParseError`` at the first cell ``_read_columns`` parses that is no finite real."""
    for line, cells in _chunks(path, columns, 1):
        row = [cell for (cell,) in cells]
        for column, cell in zip(columns, row[:parsed]) if all(row) else ():
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                raise CsvParseError(line, column, cell) from None


def _read_columns(path: str, columns: list[str], parsed: int) -> tuple[list, int]:
    """The cells of ``columns`` in the rows that have them all, and the count of rows that do not.

    The first ``parsed`` columns are float arrays, the rest lists of strings.
    Only a cell that is no finite real has the file read again, row by row.
    """
    kept, dropped = [[] for _ in columns], 0
    try:
        for _, cells in _chunks(path, columns, _CHUNK_ROWS):
            if not all(map(all, cells)):
                full = list(map(all, zip(*cells)))
                dropped += len(full) - sum(full)
                cells = [list(compress(col, full)) for col in cells]
            for j, col in enumerate(cells):
                kept[j].extend(map(float, col) if j < parsed else col)
        arrays = [np.array(col, dtype=float) for col in kept[:parsed]]
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("a cell is no finite real")
    except (ValueError, csv.Error):  # the rescan raises the first error in file order
        _raise_first_bad(path, columns, parsed)
        raise
    return [*arrays, *kept[parsed:]], dropped


def _group(label: str, members) -> SampleBatch:
    if len(members) < MIN_GROUP_SIZE:
        raise TooFewObservations(label, len(members), MIN_GROUP_SIZE)
    return SampleBatch(np.asarray(members))


def load_sample(path: str, value_column: str) -> tuple[SampleBatch, int]:
    """A column of a header CSV as one group labeled by its path, under ``load_csv``'s
    rules, and the count of rows dropped for a missing cell."""
    (values,), dropped = _read_columns(path, [value_column], 1)
    return _group(path, values), dropped


def load_csv(
    path: str,
    value_column: str,
    group_column: str,
    cut_probabilities: tuple[float, ...] | None = None,
) -> GroupedDataset:
    """Read a header CSV and form sample groups.

    Rows with missing values in the selected columns are dropped and counted.
    Groups are the distinct labels of ``group_column``, or, given
    ``cut_probabilities`` (strictly increasing, inside (0, 1)), the quantile
    bands of its numeric values.
    """
    ps = cut_probabilities
    if ps is not None:
        if not ps or any(not (0.0 < p < 1.0) for p in ps):
            raise InvalidParameter("cut probabilities must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise InvalidParameter("cut probabilities must be strictly increasing")

    (values, keys), dropped = _read_columns(path, [value_column, group_column], 1 if ps is None else 2)
    if not len(keys):
        raise TooFewObservations("<dataset>", 0, 2)
    if ps is None:
        buckets: dict[str, list[float]] = {}
        for key, value in zip(keys, values.tolist()):
            buckets.setdefault(key, []).append(value)
        members = sorted(buckets.items())
    else:
        # + 0.0 reads a key of -0 as 0: np.quantile's partition and np.sort
        # may order -0 and 0 differently, which would flip a zero cut's sign
        arr = keys + 0.0
        ascending = np.sort(arr)
        cuts = np.array([_sorted_quantile(ascending, p) for p in ps])
        edges = [float(ascending[0]), *map(float, cuts), float(ascending[-1])]
        # membership: first band closed, then (q_{i-1}, q_i]; searchsorted with
        # side="left" sends ties on a cut to the lower band
        band = np.searchsorted(cuts, arr, side="left")
        members = [(label, values[band == k]) for k, label in enumerate(_quantile_labels(edges))]

    return GroupedDataset(tuple((label, _group(label, m)) for label, m in members), dropped)


def pairwise_matrix(ds: GroupedDataset, *, boundary_reflect: bool = False) -> DivergenceMatrix:
    """Relative-extropy estimate for every unordered pair of groups.

    Each group's Sheather-Jones bandwidth is selected once, and its
    int fhat^2 computed once, then both are reused across its pairs; an
    error in a selection names its group.  The matrix is mirrored with an
    exactly zero diagonal.
    """
    bandwidths = []
    for label, batch in ds.groups:
        try:
            bandwidths.append(sheather_jones_bandwidth(batch))
        except ExtropyError as exc:  # any other exception propagates as raised
            raise type(exc)(f"group {label!r}: {exc}") from exc
    values = estimate_pairwise_relative_extropy(
        [batch for _, batch in ds.groups], bandwidths, boundary_reflect=boundary_reflect
    )
    return DivergenceMatrix(labels=ds.labels, values=values, bandwidths=tuple(bandwidths))
