"""CSV ingestion, quantile grouping, and pairwise divergence matrices.

``load_csv`` forms groups from one column: its distinct labels, or, given
cut probabilities, quantile bands of its numeric values.  Quantiles use
linear interpolation of the empirical cdf, read off the sorted column with
numpy's arithmetic (``np.quantile`` bit for bit, without importing
``numpy.ma``); a value equal to a cut belongs to the lower interval, so
labels read "[lo,q1]", "(q1,q2]", ..., "(qk,hi]" and membership partitions
the retained rows.  ``pairwise_matrix`` selects each group's Sheather-Jones
bandwidth, naming the group in a selection's package error (any other
exception propagates as raised), and estimates every pair.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

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


def _read_rows(path: str, columns: list[str]) -> list[dict[str, str]]:
    """The rows of a header CSV that has every one of ``columns``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in columns:
            if col not in header:
                raise MissingColumn(f"column {col!r} not in header {header} of {path}")
        return list(reader)


def _finite(line: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvParseError(line, column, cell) from None
    if not math.isfinite(value):
        raise CsvParseError(line, column, cell)
    return value


def _group(label: str, members: list[float]) -> SampleBatch:
    if len(members) < MIN_GROUP_SIZE:
        raise TooFewObservations(label, len(members), MIN_GROUP_SIZE)
    return SampleBatch(np.asarray(members))


def load_sample(path: str, value_column: str) -> SampleBatch:
    """A column of a header CSV as one group labeled by its path, under ``load_csv``'s rules."""
    values = []
    for line, row in enumerate(_read_rows(path, [value_column]), start=2):  # header is line 1
        cell = (row.get(value_column) or "").strip()
        if cell:
            values.append(_finite(line, value_column, cell))
    return _group(path, values)


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
    rows = _read_rows(path, [value_column, group_column])

    dropped = 0
    values: list[float] = []
    keys: list[str] = []
    key_lines: list[int] = []
    for idx, row in enumerate(rows, start=2):  # header is line 1
        raw_value = (row.get(value_column) or "").strip()
        raw_key = (row.get(group_column) or "").strip()
        if not raw_value or not raw_key:
            dropped += 1
            continue
        values.append(_finite(idx, value_column, raw_value))
        keys.append(raw_key)
        key_lines.append(idx)

    if not keys:
        raise TooFewObservations("<dataset>", 0, 2)
    if ps is None:
        buckets: dict[str, list[float]] = {}
        for key, value in zip(keys, values):
            buckets.setdefault(key, []).append(value)
        ordered = sorted(buckets)
    else:
        # + 0.0 reads a key of -0 as 0: np.quantile's partition and np.sort
        # may order -0 and 0 differently, which would flip a zero cut's sign
        arr = np.asarray([_finite(line, group_column, key) for line, key in zip(key_lines, keys)]) + 0.0
        ascending = np.sort(arr)
        cuts = np.array([_sorted_quantile(ascending, p) for p in ps])
        edges = [float(ascending[0]), *map(float, cuts), float(ascending[-1])]
        labels = _quantile_labels(edges)
        # membership: first band closed, then (q_{i-1}, q_i]; searchsorted with
        # side="left" sends ties on a cut to the lower band
        band = np.searchsorted(cuts, arr, side="left")
        buckets = {label: [] for label in labels}
        for b, value in zip(band, values):
            buckets[labels[int(b)]].append(value)
        ordered = labels

    return GroupedDataset(
        groups=tuple((label, _group(label, buckets[label])) for label in ordered),
        dropped_rows=dropped,
    )


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
