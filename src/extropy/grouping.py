"""CSV ingestion, quantile grouping, and pairwise divergence matrices.

Groups come either from the distinct values of a label column or from
quantile cuts of a numeric column.  Quantiles use linear interpolation of the
empirical cdf (numpy's default); a value equal to a cut belongs to the lower
interval, so labels read "[lo,q1]", "(q1,q2]", ..., "(qk,hi]" and membership
partitions the retained rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvParseError, InvalidParameter, MissingColumn, TooFewObservations
from .estimation import SampleBatch, estimate_pairwise_relative_extropy, sheather_jones_bandwidth

__all__ = [
    "QuantileGroupSpec",
    "GroupedDataset",
    "DivergenceMatrix",
    "load_csv",
    "pairwise_matrix",
]

MIN_GROUP_SIZE = 5


@dataclass(frozen=True)
class QuantileGroupSpec:
    """Quantile cuts of ``group_column`` used to partition rows into bands."""

    group_column: str
    cut_probabilities: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)

    def __post_init__(self):
        ps = self.cut_probabilities
        if not ps or any(not (0.0 < p < 1.0) for p in ps):
            raise InvalidParameter("cut probabilities must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise InvalidParameter("cut probabilities must be strictly increasing")


@dataclass(frozen=True)
class GroupedDataset:
    """Labeled sample groups plus provenance of how they were formed."""

    groups: tuple[tuple[str, SampleBatch], ...]
    source: str
    value_column: str
    group_by: str
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


def load_csv(
    path: str,
    value_column: str,
    group_column: str | None = None,
    quantile_spec: QuantileGroupSpec | None = None,
    filters: dict[str, str] | None = None,
) -> GroupedDataset:
    """Read a header CSV and form sample groups.

    Rows with missing values in the selected columns are dropped and counted.
    Exactly one of ``group_column`` (distinct labels) or ``quantile_spec``
    (quantile bands of a numeric column) selects the grouping.
    """
    if (group_column is None) == (quantile_spec is None):
        raise InvalidParameter("exactly one of group_column or quantile_spec is required")
    filters = filters or {}

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [value_column] + list(filters)
        group_by = group_column if group_column is not None else quantile_spec.group_column
        needed.append(group_by)
        for col in needed:
            if col not in header:
                raise MissingColumn(f"column {col!r} not in header {header}")
        rows = list(reader)

    dropped = 0
    values: list[float] = []
    keys: list[str] = []
    key_lines: list[int] = []
    for idx, row in enumerate(rows, start=2):  # header is line 1
        if any((row.get(c) or "").strip() != v for c, v in filters.items()):
            continue
        raw_value = (row.get(value_column) or "").strip()
        raw_key = (row.get(group_by) or "").strip()
        if not raw_value or not raw_key:
            dropped += 1
            continue
        try:
            value = float(raw_value)
        except ValueError:
            raise CsvParseError(idx, value_column, raw_value) from None
        if not math.isfinite(value):
            raise CsvParseError(idx, value_column, raw_value)
        values.append(value)
        keys.append(raw_key)
        key_lines.append(idx)

    if quantile_spec is None:
        buckets: dict[str, list[float]] = {}
        for key, value in zip(keys, values):
            buckets.setdefault(key, []).append(value)
        ordered = sorted(buckets)
    else:
        numeric_keys = []
        for line, key in zip(key_lines, keys):
            try:
                numeric = float(key)
            except ValueError:
                raise CsvParseError(line, group_by, key) from None
            if not math.isfinite(numeric):
                raise CsvParseError(line, group_by, key)
            numeric_keys.append(numeric)
        arr = np.asarray(numeric_keys)
        cuts = np.quantile(arr, quantile_spec.cut_probabilities)
        edges = [float(arr.min()), *map(float, cuts), float(arr.max())]
        labels = _quantile_labels(edges)
        # membership: first band closed, then (q_{i-1}, q_i]; searchsorted with
        # side="left" sends ties on a cut to the lower band
        band = np.searchsorted(cuts, arr, side="left")
        buckets = {label: [] for label in labels}
        for b, value in zip(band, values):
            buckets[labels[int(b)]].append(value)
        ordered = labels

    groups = []
    for label in ordered:
        members = buckets[label]
        if len(members) < MIN_GROUP_SIZE:
            raise TooFewObservations(label, len(members), MIN_GROUP_SIZE)
        groups.append((label, SampleBatch(np.asarray(members))))

    return GroupedDataset(
        groups=tuple(groups),
        source=path,
        value_column=value_column,
        group_by=group_by,
        dropped_rows=dropped,
    )


def pairwise_matrix(
    ds: GroupedDataset,
    *,
    support_lower: float | None = None,
    boundary_reflect: bool = False,
) -> DivergenceMatrix:
    """Relative-extropy estimate for every unordered pair of groups.

    Each group's bandwidth is selected once, and its int fhat^2 computed
    once, then both are reused across its pairs; the matrix is mirrored with
    an exactly zero diagonal.
    """
    bandwidths = []
    for label, batch in ds.groups:
        try:
            bandwidths.append(sheather_jones_bandwidth(batch))
        except Exception as exc:
            raise type(exc)(f"group {label!r}: {exc}") from exc
    values = estimate_pairwise_relative_extropy(
        [batch for _, batch in ds.groups],
        bandwidths,
        support_lower=support_lower,
        boundary_reflect=boundary_reflect,
    )
    return DivergenceMatrix(labels=ds.labels, values=values, bandwidths=tuple(bandwidths))
