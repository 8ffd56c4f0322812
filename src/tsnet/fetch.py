"""Download and normalize the public policy-uncertainty index files.

Each dataset is fetched from its publisher URL (or an override, which
may be a ``file://`` URL for offline work), normalized to a simple
``date,<value columns>`` CSV, and written next to a JSON manifest that
records the source URL, SHA-256 of the raw payload, and row count.

The publisher occasionally revises these files, so downstream numbers
can drift between vintages; the manifest flags a row count that differs
from the vintage this package's reference statistics were computed on,
and counts the dated rows it drops for an impossible date or a bad cell.

The network modules are imported only when a download runs, and the XML
parser only when a workbook is read, so importing this module (as the
command line parser does, for ``DATASETS``) loads neither.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, timezone
from pathlib import Path

from .errors import InvalidParam, NetworkError, UnrecognizedFormat

_XLSX_MAGIC = b"PK\x03\x04"


@dataclass(frozen=True)
class _Dataset:
    url: str
    monthly: bool
    value_names: tuple[str, ...]
    reference_rows: int


DATASETS: dict[str, _Dataset] = {
    "us-daily": _Dataset(
        url="https://www.policyuncertainty.com/media/All_Daily_Policy_Data.csv",
        monthly=False,
        value_names=("epu",),
        reference_rows=12368,
    ),
    "us-monthly": _Dataset(
        url="https://www.policyuncertainty.com/media/US_Policy_Uncertainty_Data.xlsx",
        monthly=True,
        value_names=("epu", "news_epu"),
        reference_rows=407,
    ),
    "cn-monthly": _Dataset(
        url="https://www.policyuncertainty.com/media/China_Policy_Uncertainty_Data.xlsx",
        monthly=True,
        value_names=("epu",),
        reference_rows=286,
    ),
}


@dataclass(frozen=True)
class FetchResult:
    csv_path: Path
    manifest_path: Path
    sha256: str
    rows: int
    vintage_matches: bool
    dropped_rows: int


def fetch_dataset(
    name: str,
    url: str | None = None,
    out_dir: str | Path = ".",
    timeout: float = 30.0,
) -> FetchResult:
    import hashlib

    if name not in DATASETS:
        raise InvalidParam(
            f"unknown dataset {name!r}; choose from {', '.join(sorted(DATASETS))}"
        )
    spec = DATASETS[name]
    source_url = url or spec.url
    raw = _download(source_url, timeout)
    header, rows = _parse_table(raw)
    out_rows, dropped = _normalize_rows(header, rows, spec)
    if not out_rows:
        raise UnrecognizedFormat(f"no data rows recognized in {source_url}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("date",) + spec.value_names)
        writer.writerows(out_rows)

    manifest = {
        "dataset": name,
        "source_url": source_url,
        "sha256": hashlib.sha256(raw).hexdigest(),
        "content_bytes": len(raw),
        "rows": len(out_rows),
        "dropped_rows": dropped,
        "reference_rows": spec.reference_rows,
        "vintage_matches": len(out_rows) == spec.reference_rows,
        "retrieved_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    manifest_path = out_dir / f"{name}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return FetchResult(
        csv_path=csv_path,
        manifest_path=manifest_path,
        sha256=manifest["sha256"],
        rows=len(out_rows),
        vintage_matches=manifest["vintage_matches"],
        dropped_rows=dropped,
    )


def _download(url: str, timeout: float) -> bytes:
    import socket
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers={"User-Agent": "tsnet/0.1"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.read()
    except (urllib.error.URLError, socket.timeout, OSError, ValueError) as exc:
        raise NetworkError(f"could not retrieve {url}: {exc}") from exc


def _parse_table(raw: bytes) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of CSV bytes or an xlsx workbook, blank rows dropped
    and short rows padded with empty cells to the header's width."""
    if raw.startswith(_XLSX_MAGIC):
        rows = _xlsx_rows(raw)
    else:
        try:
            text = raw.decode("utf-8-sig")
        except UnicodeDecodeError:
            text = raw.decode("latin-1")
        reader = csv.reader(io.StringIO(text))
        try:
            rows = list(reader)
        except csv.Error as exc:  # e.g. a field over the csv module's limit
            raise UnrecognizedFormat(f"row {reader.line_num}: {exc}") from None
    rows = [r for r in rows if any(c.strip() for c in r)]
    if len(rows) < 2:
        raise UnrecognizedFormat("file has no data rows")
    return rows[0], [r + [""] * (len(rows[0]) - len(r)) for r in rows[1:]]


def _xlsx_rows(raw: bytes) -> list[list[str]]:
    """The first sheet's cell text, read with the standard library.  A
    date-styled cell reads as its Excel serial number, not as a date."""
    import posixpath
    import xml.etree.ElementTree as ET
    import zipfile
    import zlib

    ns = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"
    rel_id = "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}id"

    def part(target):  # relative to xl/, or absolute in the package
        path = posixpath.normpath(posixpath.join("xl", target)).lstrip("/")
        return ET.fromstring(zf.read(path))

    def text(el):  # a shared or inline string: plain, or rich-text runs
        runs = el.findall(f"{ns}t") + el.findall(f"{ns}r/{ns}t")
        return "".join(t.text or "" for t in runs)

    def column(ref):  # "AB12" -> 27; a character other than A-Z: ValueError
        letters = ref.rstrip("0123456789")[::-1]
        return sum(26**i * ("ABCDEFGHIJKLMNOPQRSTUVWXYZ".index(ch) + 1)
                   for i, ch in enumerate(letters)) - 1

    try:
        with zipfile.ZipFile(io.BytesIO(raw)) as zf:
            first = part("workbook.xml").find(f"{ns}sheets/{ns}sheet")  # tab order
            rels = {r.get("Id"): r for r in part("_rels/workbook.xml.rels")}
            shared = (r.get("Target") for r in rels.values()
                      if r.get("Type", "").endswith("/sharedStrings"))
            # a dict, not a list, so that index -1 fails as well
            strings = dict(enumerate(text(si) for t in shared for si in part(t)))
            sheet = part(rels[first.get(rel_id)].get("Target"))
        rows = []
        for row in sheet.iter(f"{ns}row"):
            cells = []
            for c in row.findall(f"{ns}c"):
                ref, kind, v = c.get("r"), c.get("t"), c.findtext(f"{ns}v", "")
                col = column(ref) if ref else len(cells)
                if not len(cells) <= col < 16384:  # XFD is Excel's last column
                    raise ValueError(f"cell reference {ref!r} out of order")
                cells += [""] * (col - len(cells))
                cells.append(strings[int(v)] if kind == "s" else
                             text(c.find(f"{ns}is")) if kind == "inlineStr" else v)
            rows.append(cells)
    except (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError, ET.ParseError,
            LookupError, ValueError, TypeError, AttributeError) as exc:
        raise UnrecognizedFormat(f"unreadable xlsx workbook: {exc!r}") from exc
    return rows


def _find_column(header: list[str], token: str) -> int | None:
    for i, name in enumerate(header):
        if token in name.strip().lower():
            return i
    return None


def _int_or_none(cell: str) -> int | None:
    try:
        return int(float(cell))
    except (ValueError, OverflowError):  # OverflowError: an infinite cell
        return None


def _normalize_rows(
    header: list[str], rows: list[list[str]], spec: _Dataset
) -> tuple[list[tuple], int]:
    """Dated rows as ``(date, *values)`` sorted by date, and the count of
    rows dropped although their year and month parse: a date that does not
    exist, or a day or value cell that does not parse.  Rows without a year
    and month (footnotes) are not data; a date given twice is an error."""
    year_col = _find_column(header, "year")
    month_col = _find_column(header, "month")
    day_col = None if spec.monthly else _find_column(header, "day")
    if year_col is None or month_col is None or (not spec.monthly and day_col is None):
        raise UnrecognizedFormat(
            f"could not locate date columns in header {header!r}"
        )
    date_cols = {year_col, month_col, day_col}
    value_cols = [i for i in range(len(header)) if i not in date_cols]
    # keep only columns that are numeric in the first parseable row
    probe = next((r for r in rows if _int_or_none(r[year_col]) is not None), None)
    if probe is not None:
        value_cols = [i for i in value_cols if _float_or_none(probe[i]) is not None]
    if len(value_cols) < len(spec.value_names):
        raise UnrecognizedFormat(
            f"expected {len(spec.value_names)} value columns, found {len(value_cols)}"
        )
    value_cols = value_cols[: len(spec.value_names)]

    out = []
    dropped = 0
    for row in rows:
        year, month = _int_or_none(row[year_col]), _int_or_none(row[month_col])
        if year is None or month is None:  # footnote or blank row
            continue
        day = 1 if spec.monthly else _int_or_none(row[day_col])
        values = [_float_or_none(row[col]) for col in value_cols]
        try:  # a day cell that does not parse is None: TypeError
            stamp = date(year, month, day).isoformat()[: 7 if spec.monthly else 10]
        except (TypeError, ValueError):
            stamp = None
        if stamp is None or None in values:
            dropped += 1
            continue
        out.append((stamp, *map(repr, values)))
    out.sort(key=lambda r: r[0])
    for prev, row in zip(out, out[1:]):
        if prev[0] == row[0]:
            raise UnrecognizedFormat(f"date {row[0]} appears more than once")
    return out, dropped


def _float_or_none(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None
