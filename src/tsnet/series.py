"""Time-series container, CSV ingestion, and descriptive statistics.

A :class:`TimeSeries` is an immutable, equally spaced sequence of finite
real observations.  Sample indices are implicit integers ``0..N-1``;
calendar timestamps, when attached, are informational only and play no
role in any computation.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .errors import EmptySeries, MissingColumn, MomentOverflow, ParseError


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered finite real observations with an identifying label.

    Invariants enforced at construction:

    * ``values`` is 1-d, length >= 1, every entry finite, and the sum of
      squared deviations from the mean is finite
    * ``timestamps``, if given, is strictly increasing and aligned with
      ``values``
    """

    values: np.ndarray
    label: str = ""
    timestamps: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"series values must be 1-d, got shape {values.shape}")
        if values.size == 0:
            raise EmptySeries("series has no observations")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite (no NaN or infinity)")
        _centre(values)
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.timestamps is not None:
            stamps = tuple(self.timestamps)
            if len(stamps) != values.size:
                raise ValueError(
                    f"{len(stamps)} timestamps for {values.size} observations"
                )
            if any(a >= b for a, b in zip(stamps, stamps[1:])):
                raise ValueError("timestamps must be strictly increasing")
            object.__setattr__(self, "timestamps", stamps)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n

    def prefix(self, k: int) -> "TimeSeries":
        """First ``k`` observations as a new series."""
        if not 1 <= k <= self.n:
            raise ValueError(f"prefix length {k} outside [1, {self.n}]")
        stamps = self.timestamps[:k] if self.timestamps is not None else None
        return TimeSeries(self.values[:k], label=self.label, timestamps=stamps)


def _series_values(ts) -> np.ndarray:
    """Values of a TimeSeries, or of a 1-d array that makes a valid one."""
    return ts.values if isinstance(ts, TimeSeries) else TimeSeries(ts).values


def _centre(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of finite values and their deviations from it; raises
    :class:`MomentOverflow` when the squared deviations sum past float64."""
    lo = float(np.min(x))
    hi = float(np.max(x))
    with np.errstate(over="ignore"):
        # Equal values have exactly zero variance, but np.mean of them can
        # round one ulp away, and the moments of that rounding error are
        # pure noise.  Rounding can also carry the mean past an extreme.
        mean = lo if lo == hi else min(max(float(np.mean(x)), lo), hi)
        d = x - mean
        if not math.isfinite(float(np.sum(d * d))):
            raise MomentOverflow(
                f"values in [{lo!r}, {hi!r}] spread too far for float64 moments"
            )
    return mean, d


@dataclass(frozen=True)
class SummaryStats:
    """Descriptive statistics of one series.

    ``std_dev`` uses the sample (N-1) estimator.  ``skewness`` and
    ``kurtosis`` are the bias-adjusted sample estimators; ``kurtosis`` is
    the EXCESS convention (normal = 0).  Both are ``None`` when undefined
    (zero variance, or too few observations for the adjustment).
    """

    n: int
    mean: float
    median: float
    min: float
    max: float
    std_dev: float
    skewness: float | None
    kurtosis: float | None


def from_csv(
    data: bytes | str | IO,
    column: str | int,
    date_column: str | int | None = None,
    label: str | None = None,
) -> TimeSeries:
    """Parse one numeric column of a UTF-8 CSV.

    A leading byte-order mark, as Excel writes, is ignored.  Row 1 is the
    header unless every one of its cells is a finite real number; then
    the file has no header, row 1 is data, and columns are addressed by
    zero-based index only.

    ``column`` selects by header name or zero-based index.  Rows whose
    target cell is not a finite real number raise :class:`ParseError`
    carrying the 1-based file line number; nothing is skipped silently.
    So do bytes that are not UTF-8 and malformed CSV.  ``date_column``
    optionally attaches a timestamp column (informational), whose
    entries must be present and increase strictly.  A named
    ``date_column`` picks the header equal to the name and otherwise the
    first header that contains it, both ignoring case; it is never the
    value column, and a headerless file has none.
    """
    raw = data if isinstance(data, (bytes, str)) else data.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = raw.count(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"row {line_no}: byte 0x{raw[exc.start]:02x} is not valid UTF-8",
                row=line_no,
            ) from None
    reader = csv.reader(io.StringIO(raw.removeprefix("\ufeff")))
    try:
        values, stamps = _read_rows(reader, column, date_column)
    except csv.Error as exc:
        line_no = reader.line_num
        raise ParseError(f"row {line_no}: {exc}", row=line_no) from None
    if not values:
        raise EmptySeries("CSV contains no data rows")

    return TimeSeries(
        np.asarray(values),
        label=label if label is not None else str(column),
        timestamps=tuple(stamps) if date_column is not None else None,
    )


def _read_rows(reader, column, date_column) -> tuple[list[float], list[str]]:
    try:
        first = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise EmptySeries("CSV has no header row") from None
    headerless = bool(first) and all(_float_or_none(c) is not None for c in first)
    header = None if headerless else first
    col_idx = _resolve_column(header, len(first), column)
    date_idx = None
    if isinstance(date_column, str):
        if header is None:
            raise MissingColumn(
                f"date column {date_column!r} named, but row 1 is numeric, so "
                "the file has no header and no date column"
            )
        # Exact name (any case) wins over a header that merely contains
        # it; value columns keep exact lookup, so this rule lives here.
        key = date_column.lower()
        dated = [i for i, h in enumerate(header) if key in h.lower() and i != col_idx]
        if not dated:
            raise MissingColumn(f"column {date_column!r} not in header {header}")
        date_idx = min(dated, key=lambda i: header[i].lower() != key)
    elif date_column is not None:
        date_idx = _resolve_column(header, len(first), date_column)

    values: list[float] = []
    stamps: list[str] = []
    for row in itertools.chain([first], reader) if headerless else reader:
        line_no = reader.line_num  # a quoted newline makes a record span lines
        try:
            cell = row[col_idx].strip()
            value = float(cell)
        except (IndexError, ValueError):
            if not any(c.strip() for c in row):
                continue  # blank line, common as a trailing artifact
            if col_idx >= len(row):
                msg = f"row {line_no} has no cell in column {column!r}"
            else:
                msg = f"row {line_no}: cannot parse {cell!r} as a real number"
            raise ParseError(msg, row=line_no) from None
        if not math.isfinite(value):
            raise ParseError(f"row {line_no}: non-finite value {cell!r}", row=line_no)
        values.append(value)
        if date_idx is not None:
            stamp = row[date_idx].strip() if date_idx < len(row) else ""
            if not stamp:
                msg = f"row {line_no} has no date in column {date_column!r}"
                raise ParseError(msg, row=line_no)
            if stamps and stamp <= stamps[-1]:
                msg = f"row {line_no}: date {stamp!r} does not follow {stamps[-1]!r}"
                raise ParseError(msg, row=line_no)
            stamps.append(stamp)
    return values, stamps


def _float_or_none(cell: str) -> float | None:
    """The cell's value if it is a finite real number, else None."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _resolve_column(header: Sequence[str] | None, width: int, column: str | int) -> int:
    if isinstance(column, int):
        if not 0 <= column < width:
            raise MissingColumn(
                f"column index {column} out of range (row 1 has {width} cells)"
            )
        return column
    if header is None:
        raise MissingColumn(
            f"column {column!r} named, but row 1 is numeric, so the file has no "
            "header; address the column by zero-based index"
        )
    try:
        return header.index(column)
    except ValueError:
        raise MissingColumn(f"column {column!r} not in header {list(header)}") from None


def summary(ts: TimeSeries) -> SummaryStats:
    """Two-pass moment computation over one series.

    Skewness and excess kurtosis follow the bias-adjusted sample
    estimators used by common statistical software; they need N >= 3
    (resp. N >= 4) and positive variance, otherwise ``None``.  A series
    whose minimum equals its maximum has exactly zero variance, and the
    mean always lies in ``[min, max]``.
    """
    x = ts.values
    n = x.size
    mean, d = _centre(x)
    std = 0.0
    skew: float | None = None
    kurt: float | None = None
    if d.any():
        # Scaling by a power of two is exact; it keeps the squares of tiny
        # deviations out of the subnormal range, where they lose digits.
        exponent = math.frexp(float(np.max(np.abs(d))))[1]
        e = np.ldexp(d, -exponent)
        scaled_std = math.sqrt(float(np.sum(e * e)) / (n - 1))
        std = math.ldexp(scaled_std, exponent)
        z = e / scaled_std
        if n >= 3:
            skew = float(n / ((n - 1) * (n - 2)) * np.sum(z**3))
        if n >= 4:
            s4 = float(np.sum(z**4))
            kurt = float(
                n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * s4
                - 3 * (n - 1) ** 2 / ((n - 2) * (n - 3))
            )

    with np.errstate(over="ignore"):
        median = float(np.median(x))
    if math.isinf(median):
        # The two middle values summed past float64; halving is exact here.
        median = float(np.median(x / 2)) * 2

    return SummaryStats(
        n=n,
        mean=mean,
        median=median,
        min=float(np.min(x)),
        max=float(np.max(x)),
        std_dev=std,
        skewness=skew,
        kurtosis=kurt,
    )
