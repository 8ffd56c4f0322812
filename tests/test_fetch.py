import hashlib
import io
import json
import zipfile

import pytest

from tsnet import InvalidParam, NetworkError, UnrecognizedFormat, from_csv
from tsnet.cli import main
from tsnet.fetch import _parse_table, _xlsx_rows, fetch_dataset

from workbooks import MAIN, replace_parts, xlsx_bytes

DAILY_RAW = (
    "year,month,day,daily_policy_index\n"
    "1985,1,2,95.5\n"
    "1985,1,1,101.25\n"  # out of order on purpose; output must be sorted
    "1985,1,3,87.0\n"
    "Note: index rebased in 2011,,,\n"
)

MONTHLY_US_RAW = (
    "Year,Month,Three_Component_Index,News_Based_Policy_Uncert_Index\n"
    "1985,1,125.2,100.1\n"
    "1985,2,99.0,102.3\n"
    "1985,3,112.7,98.4\n"
)

MONTHLY_CN_RAW = (
    "Year,Month,China_EPU\n"
    "1995,1,120.0\n"
    "1995,2,,\n"  # blank value row is dropped, and counted
    "1995,3,135.5\n"
)


IMPOSSIBLE_DATES_RAW = (
    "year,month,day,daily_policy_index\n"
    "1985,1,1,100.0\n"
    "1985,13,2,90.0\n"
    "1985,2,30,80.0\n"
    "1985,1,2,95.0\n"
)

# how a table reaches fetch: as CSV text, or as a workbook of each kind
ENCODINGS = {
    "csv": str.encode,
    "xlsx-shared": xlsx_bytes,
    "xlsx-inline": lambda table: xlsx_bytes(table, inline=True),
}


def file_url(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, newline="\n")
    return path.as_uri()


def bytes_url(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path.as_uri()


def sheet(rows_xml):
    return (f'<worksheet xmlns="{MAIN}"><sheetData>{rows_xml}</sheetData>'
            "</worksheet>").encode()


def corrupt_member(raw, name):
    """``raw`` with bytes inside the compressed data of member ``name``
    overwritten, so inflating it fails."""
    info = zipfile.ZipFile(io.BytesIO(raw)).getinfo(name)
    start = info.header_offset + 30 + len(info.filename.encode()) + len(info.extra)
    return raw[: start + 5] + b"\xff" * 8 + raw[start + 13 :]


class TestFetchDataset:
    def test_daily_normalization(self, tmp_path):
        url = file_url(tmp_path, "daily.csv", DAILY_RAW)
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        text = result.csv_path.read_text()
        assert text.splitlines()[0] == "date,epu"
        assert text.splitlines()[1] == "1985-01-01,101.25"  # sorted, zero-padded
        assert result.rows == 3  # footnote row dropped
        assert not result.vintage_matches

        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["sha256"] == hashlib.sha256(
            DAILY_RAW.encode()
        ).hexdigest()
        assert manifest["rows"] == 3
        assert manifest["dropped_rows"] == 0  # a footnote is not a dated row
        assert manifest["reference_rows"] == 12368

    def test_short_row_before_data_skipped(self, tmp_path):
        raw = "day,month,year,daily_policy_index\nnote\n1,1,1985,100.5\n2,1,1985,98.0\n"
        url = file_url(tmp_path, "daily.csv", raw)
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        assert result.csv_path.read_text().splitlines() == [
            "date,epu", "1985-01-01,100.5", "1985-01-02,98.0"
        ]

    def test_fetched_csv_feeds_analyze(self, tmp_path):
        url = file_url(tmp_path, "daily.csv", DAILY_RAW)
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        ts = from_csv(
            result.csv_path.read_bytes(), column="epu", date_column="date"
        )
        assert ts.n == 3
        assert ts.timestamps[0] == "1985-01-01"

    def test_monthly_two_value_columns(self, tmp_path):
        url = file_url(tmp_path, "us.csv", MONTHLY_US_RAW)
        result = fetch_dataset("us-monthly", url=url, out_dir=tmp_path / "out")
        lines = result.csv_path.read_text().splitlines()
        assert lines[0] == "date,epu,news_epu"
        assert lines[1] == "1985-01,125.2,100.1"

    def test_monthly_single_value_column(self, tmp_path):
        url = file_url(tmp_path, "cn.csv", MONTHLY_CN_RAW)
        result = fetch_dataset("cn-monthly", url=url, out_dir=tmp_path / "out")
        lines = result.csv_path.read_text().splitlines()
        assert lines == ["date,epu", "1995-01,120.0", "1995-03,135.5"]
        assert result.dropped_rows == 1
        assert json.loads(result.manifest_path.read_text())["dropped_rows"] == 1

    def test_unparseable_day_or_value_counted(self, tmp_path):
        raw = DAILY_RAW + "1985,1,x,90.0\n1985,1,4,n/a\n1985,1,5,nan\n"
        url = file_url(tmp_path, "daily.csv", raw)
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        assert result.rows == 3
        assert result.dropped_rows == 3

    def test_unknown_dataset(self):
        with pytest.raises(InvalidParam):
            fetch_dataset("mars-weekly")

    def test_missing_file_is_network_error(self, tmp_path):
        with pytest.raises(NetworkError):
            fetch_dataset(
                "us-daily", url=(tmp_path / "gone.csv").as_uri(), out_dir=tmp_path
            )

    def test_header_without_dates_unrecognized(self, tmp_path):
        url = file_url(tmp_path, "odd.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(UnrecognizedFormat):
            fetch_dataset("us-daily", url=url, out_dir=tmp_path)

    def test_oversized_csv_field_unrecognized(self, tmp_path):
        raw = DAILY_RAW + '1985,1,4,"' + "9" * 200_000 + '"\n'
        url = file_url(tmp_path, "daily.csv", raw)
        with pytest.raises(UnrecognizedFormat, match="row 6: field larger"):
            fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")

    def test_latin1_csv_decoded(self, tmp_path):
        raw = "year,month,day,\xedndice\n1985,1,1,100.5\n".encode("latin-1")
        url = bytes_url(tmp_path, "daily.csv", raw)
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        assert result.csv_path.read_text().splitlines() == ["date,epu", "1985-01-01,100.5"]

    @pytest.mark.parametrize("name, raw, detail", [
        ("us-daily", "year,month,day,daily_policy_index\nNote: rebased,,,\n",
         "no data rows recognized"),
        ("cn-monthly", "year,month\n1995,1\n", "expected 1 value columns, found 0"),
        ("us-daily", "year,month,day,daily_policy_index\n", "file has no data rows"),
    ], ids=["footnotes-only", "no-value-column", "header-only"])
    def test_unusable_table_unrecognized(self, tmp_path, name, raw, detail):
        url = file_url(tmp_path, "table.csv", raw)
        with pytest.raises(UnrecognizedFormat, match=detail):
            fetch_dataset(name, url=url, out_dir=tmp_path / "out")

    def test_infinite_value_counted(self, tmp_path):
        raw = DAILY_RAW + "1985,1,4,inf\n1985,1,5,-inf\n"
        url = file_url(tmp_path, "daily.csv", raw)
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        assert result.rows == 3
        assert result.dropped_rows == 2
        ts = from_csv(result.csv_path.read_bytes(), column="epu", date_column="date")
        assert ts.timestamps[-1] == "1985-01-03"

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_impossible_dates_counted(self, tmp_path, encoding):
        url = bytes_url(tmp_path, "daily", ENCODINGS[encoding](IMPOSSIBLE_DATES_RAW))
        result = fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")
        assert result.csv_path.read_text().splitlines() == [
            "date,epu", "1985-01-01,100.0", "1985-01-02,95.0"
        ]
        assert result.dropped_rows == 2

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_impossible_month_counted(self, tmp_path, encoding):
        raw = MONTHLY_CN_RAW + "1995,13,140.0\n1995,0,150.0\n"
        url = bytes_url(tmp_path, "cn", ENCODINGS[encoding](raw))
        result = fetch_dataset("cn-monthly", url=url, out_dir=tmp_path / "out")
        assert result.rows == 2
        assert result.dropped_rows == 3

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_repeated_date_unrecognized(self, tmp_path, encoding):
        raw = DAILY_RAW + "1985,1,1,99.0\n"
        url = bytes_url(tmp_path, "daily", ENCODINGS[encoding](raw))
        with pytest.raises(UnrecognizedFormat, match="1985-01-01"):
            fetch_dataset("us-daily", url=url, out_dir=tmp_path / "out")


class TestXlsx:
    @pytest.mark.parametrize("inline", [False, True], ids=["shared", "inline"])
    @pytest.mark.parametrize("name,table", [
        ("us-monthly", MONTHLY_US_RAW),
        ("cn-monthly", MONTHLY_CN_RAW),
        ("us-daily", DAILY_RAW),
    ], ids=["us-monthly", "cn-monthly", "us-daily"])
    def test_same_output_as_csv(self, tmp_path, name, table, inline):
        source = tmp_path / "source"  # one URL, so the manifests can match
        source.write_text(table, newline="\n")
        by_csv = fetch_dataset(name, url=source.as_uri(), out_dir=tmp_path / "csv")
        source.write_bytes(xlsx_bytes(table, inline=inline))
        by_xlsx = fetch_dataset(name, url=source.as_uri(), out_dir=tmp_path / "xlsx")
        assert by_xlsx.sha256 != by_csv.sha256
        assert by_xlsx.csv_path.read_bytes() == by_csv.csv_path.read_bytes()
        assert (by_xlsx.rows, by_xlsx.dropped_rows) == (by_csv.rows, by_csv.dropped_rows)
        manifests = [json.loads(r.manifest_path.read_text()) for r in (by_csv, by_xlsx)]
        for manifest in manifests:
            for key in ("sha256", "content_bytes", "retrieved_at"):
                del manifest[key]
        assert manifests[0] == manifests[1]

    def test_gap_cells_read_as_empty(self):
        table = "Year,Month,A,,B\n1985,1,,2.5,100.1\n1985,2,3.5,,\nnote\n"
        for inline in (False, True):
            assert _parse_table(xlsx_bytes(table, inline=inline)) == _parse_table(
                table.encode()
            )

    def test_cell_text_and_columns(self):
        rich = "<si><r><t>Ye</t></r><r><t>ar</t></r></si><si><t>Month</t></si>"
        raw = replace_parts(xlsx_bytes("x\n"), {
            "xl/sharedStrings.xml": f'<sst xmlns="{MAIN}">{rich}</sst>'.encode(),
            "xl/worksheets/sheet1.xml": sheet(
                '<row r="1"><c t="s"><v>0</v></c><c r="C1" t="s"><v>1</v></c></row>'
                '<row r="3"><c r="AB3"><v>7</v></c></row>'
            ),
        })
        assert _xlsx_rows(raw) == [["Year", "", "Month"], [""] * 27 + ["7"]]

    @pytest.mark.parametrize("target", ["/xl/worksheets/data.xml", "worksheets/data.xml"])
    def test_first_sheet_found_through_rels(self, tmp_path, target):
        raw = xlsx_bytes(MONTHLY_US_RAW, target=target, decoy=MONTHLY_CN_RAW)
        url = bytes_url(tmp_path, "us.xlsx", raw)
        result = fetch_dataset("us-monthly", url=url, out_dir=tmp_path / "out")
        assert result.csv_path.read_text().splitlines() == [
            "date,epu,news_epu",
            "1985-01,125.2,100.1",
            "1985-02,99.0,102.3",
            "1985-03,112.7,98.4",
        ]

    GOOD = xlsx_bytes(MONTHLY_US_RAW)
    MALFORMED = {
        "truncated": GOOD[: len(GOOD) // 2],
        "no-workbook-xml": replace_parts(GOOD, {"xl/workbook.xml": None}),
        "shared-string-index": replace_parts(GOOD, {
            "xl/worksheets/sheet1.xml": sheet('<row><c t="s"><v>99</v></c></row>')
        }),
        "negative-shared-string-index": replace_parts(GOOD, {
            "xl/worksheets/sheet1.xml": sheet('<row><c t="s"><v>-1</v></c></row>')
        }),
        "cell-reference": replace_parts(GOOD, {
            "xl/worksheets/sheet1.xml": sheet('<row><c r="b1"><v>1</v></c></row>')
        }),
        "cell-out-of-order": replace_parts(GOOD, {
            "xl/worksheets/sheet1.xml": sheet(
                '<row><c r="B1"><v>1</v></c><c r="A1"><v>2</v></c></row>')
        }),
        "cell-past-last-column": replace_parts(GOOD, {
            "xl/worksheets/sheet1.xml": sheet('<row><c r="XFE1"><v>1</v></c></row>')
        }),
        "sheet-not-xml": replace_parts(GOOD, {"xl/worksheets/sheet1.xml": b"not xml"}),
        "corrupt-deflate": corrupt_member(GOOD, "xl/worksheets/sheet1.xml"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_workbook_unrecognized(self, tmp_path, capsys, case):
        url = bytes_url(tmp_path, "us.xlsx", self.MALFORMED[case])
        with pytest.raises(UnrecognizedFormat, match="unreadable xlsx workbook"):
            fetch_dataset("us-monthly", url=url, out_dir=tmp_path / "out")
        assert main(["fetch", "us-monthly", "--url", url,
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "tsnet: error: unreadable xlsx workbook" in capsys.readouterr().err


class TestFetchCli:
    def test_success_and_vintage_warning(self, tmp_path, capsys):
        url = file_url(tmp_path, "daily.csv", DAILY_RAW)
        assert main(["fetch", "us-daily", "--url", url,
                     "--out-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert "us-daily.csv" in captured.out
        assert "differs from the reference" in captured.err

    def test_dropped_rows_warning(self, tmp_path, capsys):
        url = file_url(tmp_path, "cn.csv", MONTHLY_CN_RAW)
        assert main(["fetch", "cn-monthly", "--url", url,
                     "--out-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "dropped" in line] == [
            "warning: dropped 1 dated row(s) whose date or value cell does not "
            "parse (dropped_rows in the manifest)"
        ]

    def test_no_dropped_rows_no_warning(self, tmp_path, capsys):
        url = file_url(tmp_path, "us.csv", MONTHLY_US_RAW)
        assert main(["fetch", "us-monthly", "--url", url,
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert "dropped" not in capsys.readouterr().err

    def test_network_failure_exit_1(self, tmp_path, capsys):
        assert main(["fetch", "us-daily",
                     "--url", (tmp_path / "gone.csv").as_uri(),
                     "--out-dir", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err
