"""Write small xlsx workbooks with ``zipfile``, for the ``fetch`` tests.

``xlsx_bytes(table)`` turns CSV text into a workbook whose first sheet
holds the same cells: finite numbers as numeric cells, other text as
shared strings (or inline strings), and empty cells left out, so each
cell's column is known only from its reference.  Run as a script, it
writes one table to a file:

    python tests/workbooks.py MONTHLY_US_RAW us-monthly.xlsx
"""

import csv
import io
import math
import sys
import zipfile
from xml.sax.saxutils import escape, quoteattr

MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
DOC_REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
PKG_REL = "http://schemas.openxmlformats.org/package/2006/relationships"


def column_letters(i):
    """Zero-based column index to its letters: 0 -> A, 27 -> AB."""
    letters = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        letters = chr(65 + rem) + letters
    return letters


def _is_number(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def sheet_xml(table, strings=None):
    """Worksheet XML of CSV text; text cells go to ``strings`` (shared)
    when it is a list, else inline."""
    rows = []
    for r, row in enumerate(csv.reader(io.StringIO(table)), start=1):
        cells = []
        for c, cell in enumerate(row):
            ref = f"{column_letters(c)}{r}"
            if not cell:
                continue
            if _is_number(cell):
                cells.append(f'<c r="{ref}"><v>{cell}</v></c>')
            elif strings is None:
                cells.append(
                    f'<c r="{ref}" t="inlineStr"><is><t>{escape(cell)}</t></is></c>'
                )
            else:
                strings.append(cell)
                cells.append(f'<c r="{ref}" t="s"><v>{len(strings) - 1}</v></c>')
        rows.append(f'<row r="{r}">{"".join(cells)}</row>')
    return f'<worksheet xmlns="{MAIN}"><sheetData>{"".join(rows)}</sheetData></worksheet>'


def xlsx_bytes(table, inline=False, target="worksheets/sheet1.xml", decoy=None):
    """A workbook whose first sheet (in tab order) holds ``table``.

    ``target`` is that sheet's relationship target, relative to ``xl/``
    or absolute.  With ``decoy``, a second sheet holding that table is
    stored as ``xl/worksheets/sheet1.xml`` and listed first in the
    relationships, so a reader that goes by file name or by relationship
    order reads the wrong sheet.
    """
    strings = None if inline else []
    parts = {}
    sheets, rels = [], []
    for rid, name, path, text in [("rId1", "Data", target, table),
                                  ("rId2", "Decoy", "worksheets/sheet1.xml", decoy)]:
        if text is None:
            continue
        sheets.append(f'<sheet name="{name}" sheetId="{len(sheets) + 1}" r:id="{rid}"/>')
        rels.insert(0, f'<Relationship Id="{rid}" Type="{DOC_REL}/worksheet" '
                       f'Target={quoteattr(path)}/>')
        name = path.lstrip("/") if path.startswith("/") else "xl/" + path
        parts[name] = sheet_xml(text, strings)
    if strings is not None:
        items = "".join(f"<si><t>{escape(s)}</t></si>" for s in strings)
        parts["xl/sharedStrings.xml"] = f'<sst xmlns="{MAIN}">{items}</sst>'
        rels.append(f'<Relationship Id="rId9" Type="{DOC_REL}/sharedStrings" '
                    'Target="sharedStrings.xml"/>')
    parts["xl/workbook.xml"] = (f'<workbook xmlns="{MAIN}" xmlns:r="{DOC_REL}">'
                                f'<sheets>{"".join(sheets)}</sheets></workbook>')
    parts["xl/_rels/workbook.xml.rels"] = (f'<Relationships xmlns="{PKG_REL}">'
                                           f'{"".join(rels)}</Relationships>')
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, xml in parts.items():
            zf.writestr(name, '<?xml version="1.0" encoding="UTF-8"?>\n' + xml)
    return buf.getvalue()


def replace_parts(raw, changes):
    """The workbook ``raw`` with each named part replaced by its bytes in
    ``changes``, or left out where they are None."""
    buf = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, zipfile.ZipFile(buf, "w") as dst:
        for name in src.namelist():
            data = changes.get(name, src.read(name))
            if data is not None:
                dst.writestr(name, data)
    return buf.getvalue()


if __name__ == "__main__":
    import test_fetch  # the script's own directory is on sys.path

    with open(sys.argv[2], "wb") as fh:
        fh.write(xlsx_bytes(getattr(test_fetch, sys.argv[1])))
