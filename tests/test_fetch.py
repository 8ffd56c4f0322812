import hashlib
import importlib.util
import json

import pytest

from tsnet import InvalidParam, NetworkError, UnrecognizedFormat, from_csv
from tsnet.cli import main
from tsnet.fetch import fetch_dataset

HAVE_OPENPYXL = importlib.util.find_spec("openpyxl") is not None

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


def file_url(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, newline="\n")
    return path.as_uri()


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

    @pytest.mark.skipif(HAVE_OPENPYXL, reason="openpyxl present; xlsx parses")
    def test_xlsx_without_openpyxl_unrecognized(self, tmp_path):
        path = tmp_path / "data.xlsx"
        path.write_bytes(b"PK\x03\x04not really a workbook")
        with pytest.raises(UnrecognizedFormat, match="openpyxl"):
            fetch_dataset("us-monthly", url=path.as_uri(), out_dir=tmp_path)


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
            "warning: dropped 1 dated row(s) whose day or value cell does not "
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
