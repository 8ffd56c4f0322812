import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tsnet.report
from tsnet.cli import build_parser, main


def run(argv):
    return main(argv)


@pytest.fixture
def fgn_csv(tmp_path):
    out = tmp_path / "fgn.csv"
    assert run(["gen", "--kind", "fgn", "--n", "600", "--seed", "3",
                "--hurst", "0.8", "--out", str(out)]) == 0
    return str(out)


@pytest.fixture
def dated_csv(write_csv):
    rows = "\n".join(
        f"2018-{month:02d},{float(month * month)!r}" for month in range(1, 13)
    )
    return write_csv("date,epu\n" + rows + "\n")


@pytest.fixture
def daily_csv(write_csv):
    # 28 days in each of January to March 1985
    rows = "".join(
        f"1985-{m:02d}-{d:02d},{float(d)!r}\n" for m in range(1, 4) for d in range(1, 29)
    )
    return write_csv("date,epu\n" + rows)


class TestGen:
    def test_writes_header_and_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["gen", "--kind", "linear", "--n", "3", "--slope", "2",
                    "--out", str(out)]) == 0
        assert out.read_text() == "index,value\n0,0.0\n1,2.0\n2,4.0\n"

    def test_stdout_mode(self, capsys):
        assert run(["gen", "--kind", "constant", "--n", "2", "--value", "7"]) == 0
        assert capsys.readouterr().out == "index,value\n0,7.0\n1,7.0\n"

    def test_param_for_wrong_kind_fails(self, capsys):
        assert run(["gen", "--kind", "linear", "--n", "8", "--hurst", "0.5"]) == 1
        assert "hurst" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["gen", "--kind", "nope", "--n", "8"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("args, name", [
        (["--kind", "constant", "--n", "5", "--value", "inf"], "value"),
        (["--kind", "linear", "--n", "4", "--slope", "nan"], "slope"),
        (["--kind", "linear", "--n", "4", "--slope", "1e308"], "slope"),
        (["--kind", "sawtooth", "--n", "8", "--period", "2.5"], "period"),
        (["--kind", "periodic", "--n", "8", "--period", "-1"], "period"),
        (["--kind", "fgn", "--n", "8"], "hurst"),
        (["--kind", "iid_gaussian", "--n", "5", "--seed", "-1"], "seed"),
    ])
    def test_bad_param_is_runtime_error(self, args, name, capsys):
        # main returns, so no exception escapes as a traceback
        assert run(["gen", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tsnet: error:") and name in err

    @pytest.mark.parametrize("kind, args, digest", [
        ("constant", [], "9665284b057ff4708652da990bc51f46ec473cd086a1ec9bef2bf5f571f67abf"),
        ("constant", ["--value", "-2.5"],
         "9e94d63498f77a4716278ac5adbfd6c87f268446d153d7961d88d7ea8c4992f4"),
        ("linear", [], "7695e87ab466a29afd6b810473d771e268f5e455ba2fd8cf48342c76a9312df5"),
        ("linear", ["--slope", "-3", "--intercept", "0.5"],
         "a05e70cf70f0f0214ec053ccff6565ccc425780b4b18a8dca7bf0e678a5f8e27"),
        ("convex", [], "f8d85531049385660c01bda514a04a5c0f6bc4bfd4f25190c43bb63929082a28"),
        ("sawtooth", [], "f185d665a78f2d7d098388e082a236626237da10f8fba2c1413b8fddc1901323"),
        ("sawtooth", ["--period", "3"],
         "25af57e05ec6849bbb93837fbcb4944f56492d3da532fa34f5884df45531e780"),
        ("periodic", [], "0155fd6f54173b13c9c5ec54c84d7284e9b8fa012595508c787ecafecbdb8063"),
        ("periodic", ["--period", "8", "--amplitude", "3"],
         "a95cb069c4c93d8c5a00ad697e64da19ecaf3bde0cf98fc3941b6f7dc4e5e34e"),
        ("iid_uniform", [], "5370469ec2e6528a20950d11beabc9822a7399b6304a5287043c041639ad514d"),
        ("iid_uniform", ["--seed", "5"],
         "2d0b8971086479ff01e54aa599b0573a97fd7d93e708079406a62fbdbd552295"),
        ("iid_gaussian", [], "cc8df303f19deca3515eb174606ff1cba2945b7456b315ce6001fa387a1996c2"),
        ("iid_gaussian", ["--seed", "5"],
         "c5ecf65ec69ae43f5e6fda740ec1be7a857a5748865ca148fbede38f81a1f223"),
        ("fgn", ["--hurst", "0.8"],
         "bc63dccd5f9bf369e4e8c7f42fc458084fd67e4224fc3cef70bc0115ded46ca8"),
        ("fgn", ["--hurst", "0.3", "--seed", "5"],
         "097300b19ce00d548a8424b58e06dd57ce022a0af6714a1eeba50007573e4397"),
        ("spike", [], "b755378a70e0cec95f21495a797cebb0081dacf2dd14a401dbd5bb3f88f8789f"),
    ])
    def test_output_pinned(self, kind, args, digest, tmp_path):
        # every kind, with its defaults and with given parameters
        out = tmp_path / "s.csv"
        assert run(["gen", "--kind", kind, "--n", "100", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestAnalyze:
    def test_report_structure(self, fgn_csv, tmp_path):
        report_path = tmp_path / "report.json"
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "tsnet/report/1"
        assert report["summary"]["n"] == 600
        assert report["summary"]["kurtosis_convention"] == "excess"
        assert 0.5 < report["hurst"]["estimate"] < 1.1
        assert report["hurst"]["classification"] == "persistent"
        assert report["graph"]["n_nodes"] == 600
        assert report["graph"]["k_min"] >= 1
        assert report["degree_tail"]["gamma"] > 0
        assert 0 < report["clustering"]["average"] <= 1
        assert -1 <= report["assortativity"]["r"] <= 1
        assert report["small_world"] is None  # flag not given

    def test_stdout_is_json(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "value"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == Path(fgn_csv).name

    def test_small_world_section(self, fgn_csv, tmp_path):
        report_path = tmp_path / "r.json"
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--small-world", "--prefix-sizes", "64,128,256,512",
                    "--report", str(report_path)]) == 0
        sw = json.loads(report_path.read_text())["small_world"]
        assert sw["sizes"] == [64, 128, 256, 512]
        assert len(sw["lengths"]) == 4
        assert sw["slope"] > 0
        assert isinstance(sw["verdict"], bool)

    def test_column_by_index(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "1"]) == 0
        json.loads(capsys.readouterr().out)

    def test_tail_kmin_override(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--tail-kmin", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degree_tail"]["k_range"][0] == 3

    def test_dfa_flags(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--dfa-order", "1", "--dfa-scales", "8:64:6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hurst"]["order"] == 1
        assert report["hurst"]["fit_range"] == [8, 64]

    def test_degenerate_stage_reported_not_fatal(self, write_csv, capsys):
        path = write_csv("value\n1.0\n2.0\n3.0\n4.0\n")
        assert run(["analyze", "--input", path, "--column", "value"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hurst"]["error"] == "SeriesTooShort"
        assert report["degree_tail"]["error"] == "InsufficientTailPoints"
        assert report["graph"]["n_nodes"] == 4  # graph stage still ran

    def test_constant_series_hurst_fit_reported(self, write_csv, capsys):
        # F(n) is all zero, so the fit, run while the report renders, fails;
        # whatever the float mean of the value, as std_dev reads 0 too
        for value in ("3.5", "0.1", "3.7", "1e-5"):
            path = write_csv("value\n" + f"{value}\n" * 64)
            assert run(["analyze", "--input", path]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["hurst"]["error"] == "DegenerateFit", value
            assert report["summary"]["std_dev"] == 0.0
            assert report["graph"]["n_nodes"] == 64

    def test_failed_graph_marks_dependents_unavailable(self, write_csv, capsys):
        path = write_csv("value\n5.0\n")
        assert run(["analyze", "--input", path, "--small-world"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["error"] == "SeriesTooShort"
        unavailable = {"error": "Unavailable", "detail": "graph construction failed"}
        for section in ("degree_tail", "clustering", "assortativity", "small_world"):
            assert report[section] == unavailable

    def test_missing_file_is_runtime_error(self, capsys):
        assert run(["analyze", "--input", "/no/such/file.csv"]) == 1
        assert "file.csv" in capsys.readouterr().err

    def test_missing_column_is_runtime_error(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "epu"]) == 1
        assert "epu" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["\u00b9", "\u00b2", "--5"])
    def test_non_decimal_column_is_a_name(self, fgn_csv, capsys, column):
        # str.isdigit accepts superscripts, and int() then raised a bare
        # ValueError; only a decimal string, less one leading "-", is an index
        assert run(["analyze", "--input", fgn_csv, f"--column={column}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tsnet: error:") and "Traceback" not in err
        assert f"column {column!r} not in header ['index', 'value']" in err

    @pytest.mark.parametrize("column", ["\u0663", "-1"])
    def test_decimal_column_out_of_range(self, fgn_csv, capsys, column):
        # an Arabic-Indic three is the decimal index 3, as int() reads it
        assert run(["analyze", "--input", fgn_csv, f"--column={column}"]) == 1
        err = capsys.readouterr().err
        assert f"column index {int(column)} out of range (row 1 has 2 cells)" in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["analyze"])  # --input missing
        assert exc_info.value.code == 2

    def test_bad_scale_grid_exit_2(self, fgn_csv):
        for grid in ("8-64-6", "a:b:c", "1:64:6", "64:8:6"):
            with pytest.raises(SystemExit) as exc_info:
                run(["analyze", "--input", fgn_csv, "--dfa-scales", grid])
            assert exc_info.value.code == 2

    def test_bad_prefix_sizes_value_exit_2(self, fgn_csv):
        with pytest.raises(SystemExit) as exc_info:
            run(["analyze", "--input", fgn_csv, "--prefix-sizes", "a,b"])
        assert exc_info.value.code == 2

    def test_prefix_sizes_without_small_world_exit_2(self, fgn_csv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["analyze", "--input", fgn_csv, "--prefix-sizes", "64,128"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--prefix-sizes" in err and "--small-world" in err

    def test_non_monotone_prefix_sizes_reported_in_section(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--small-world", "--prefix-sizes", "128,64"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["small_world"]["error"] == "InvalidParam"

    @pytest.mark.parametrize("sizes", [",", " "])
    def test_empty_prefix_sizes_reported_in_section(self, fgn_csv, capsys, sizes):
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--small-world", "--prefix-sizes", sizes]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["small_world"]["error"] == "InvalidParam"


class TestDateHandling:
    def test_date_end_month_prefix(self, dated_csv, capsys):
        assert run(["analyze", "--input", dated_csv, "--column", "epu",
                    "--date-end", "2018-05"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["n"] == 5
        assert report["summary"]["max"] == 25.0

    def test_date_end_inclusive(self, dated_csv, capsys):
        assert run(["analyze", "--input", dated_csv, "--column", "epu",
                    "--date-end", "2018-12"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["n"] == 12

    def test_date_end_before_start(self, dated_csv, capsys):
        assert run(["analyze", "--input", dated_csv, "--column", "epu",
                    "--date-end", "2017-01"]) == 1
        assert "2017-01" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["19850201", "abc", "1985-13", "", "1985-2",
                                     "1985-02-30", "1985-01- 1", "0000"])
    def test_bad_date_end_is_usage_error(self, daily_csv, capsys, bad):
        # compared with the stamps as a string prefix, the first five used
        # to keep every row
        with pytest.raises(SystemExit) as exc_info:
            run(["analyze", "--input", daily_csv, "--column", "epu", "--date-end", bad])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--date-end" in err

    @pytest.mark.parametrize("end, n", [("1985", 84), ("1985-02", 56), ("1985-02-03", 31)])
    def test_date_end_on_daily_file(self, daily_csv, capsys, end, n):
        assert run(["analyze", "--input", daily_csv, "--column", "epu",
                    "--date-end", end]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["n"] == n

    def test_date_end_without_dates(self, fgn_csv, capsys):
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--date-end", "2018-01"]) == 1
        assert "date" in capsys.readouterr().err.lower()


    def test_date_header_contains_date(self, write_csv, capsys):
        rows = "\n".join(f"{m},2018-{m:02d},{float(m)!r}" for m in range(1, 13))
        path = write_csv("id,Obs_Date,epu\n" + rows + "\n")
        assert run(["analyze", "--input", path, "--column", "epu",
                    "--date-end", "2018-05"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["n"] == 5
        assert report["summary"]["max"] == 5.0

    def test_value_column_is_not_the_date_column(self, write_csv, capsys):
        # "update_count" contains "date" but is the value column
        rows = "\n".join(f"{m},2018-{m:02d}" for m in range(1, 13))
        path = write_csv("update_count,date\n" + rows + "\n")
        assert run(["analyze", "--input", path, "--column", "update_count",
                    "--date-end", "2018-03"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["n"] == 3

    def test_exact_date_header_wins(self, write_csv, capsys):
        # "update" contains "date" and comes first, but is out of order
        rows = "\n".join(
            f"2019-{13 - m:02d},2018-{m:02d},{float(m)!r}" for m in range(1, 13)
        )
        path = write_csv("update,date,epu\n" + rows + "\n")
        assert run(["analyze", "--input", path, "--column", "epu",
                    "--date-end", "2018-04"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["n"] == 4
        assert report["summary"]["max"] == 4.0

    def test_blank_first_date_is_runtime_error(self, write_csv, capsys):
        # an empty stamp would sort before every cut and be kept
        path = write_csv("date,epu\n,1\n2018-02,2\n2018-03,3\n")
        assert run(["analyze", "--input", path, "--column", "epu",
                    "--date-end", "2018-02"]) == 1
        assert "row 2 has no date in column 'date'" in capsys.readouterr().err

    def test_date_end_on_headerless_file(self, write_csv, capsys):
        path = write_csv("1\n2\n3\n4\n5\n")
        assert run(["analyze", "--input", path, "--column", "0",
                    "--date-end", "2018"]) == 1
        err = capsys.readouterr().err
        assert "no header and no date column" in err
        assert "zero-based index" not in err

    def test_unsorted_dates_are_runtime_error(self, write_csv, capsys):
        path = write_csv("date,epu\n2018-02,1\n2018-01,2\n2018-03,3\n")
        assert run(["analyze", "--input", path, "--column", "epu",
                    "--date-end", "2018-02"]) == 1
        assert "row 3" in capsys.readouterr().err


class TestIngest:
    def test_headerless_keeps_first_row(self, write_csv, capsys):
        path = write_csv("".join(f"{v}\n" for v in (3.0, 1.0, 4.0, 1.5, 9.0, 2.6)))
        assert run(["analyze", "--input", path, "--column", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["n"] == 6
        assert report["summary"]["max"] == 9.0

    def test_overflowing_spread_is_runtime_error(self, write_csv, capsys):
        # an overflowing slope once left node 0 isolated: k_min 0
        values = ["1e308", "-1e308", "0", "5", "-1e308", "1e308", "5", "0",
                  "1e308", "-1e308"]
        path = write_csv("value\n" + "\n".join(values) + "\n")
        assert run(["analyze", "--input", path, "--column", "value"]) == 1
        assert "float64" in capsys.readouterr().err

    def test_non_utf8_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"v\n1\n\xff\n")
        assert run(["analyze", "--input", str(path), "--column", "v"]) == 1
        assert "row 3" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_across_runs(self, fgn_csv, tmp_path):
        outputs = []
        for i in range(2):
            path = tmp_path / f"r{i}.json"
            assert run(["analyze", "--input", fgn_csv, "--column", "value",
                        "--small-world", "--prefix-sizes", "64,256,600",
                        "--report", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestPlotdata:
    """``analyze --plot-dir``: plot-ready CSVs from the report's own stages."""

    @pytest.fixture
    def report(self, tmp_path):
        return str(tmp_path / "report.json")

    def test_writes_curves(self, fgn_csv, tmp_path, report):
        outdir = tmp_path / "plots"
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--plot-dir", str(outdir), "--report", report, "--small-world",
                    "--prefix-sizes", "64,128,256"]) == 0
        dfa = (outdir / "dfa_fluctuations.csv").read_text().splitlines()
        assert dfa[0] == "n,F" and len(dfa) > 5
        pdf = (outdir / "degree_pdf.csv").read_text().splitlines()
        assert pdf[0] == "k,p"
        total = sum(float(line.split(",")[1]) for line in pdf[1:])
        assert total == pytest.approx(1.0, abs=1e-9)
        curve = (outdir / "smallworld_curve.csv").read_text().splitlines()
        assert curve[0] == "N,L"
        assert [int(line.split(",")[0]) for line in curve[1:]] == [64, 128, 256]
        assert all(float(line.split(",")[1]) >= 1.0 for line in curve[1:])

    def test_empty_prefix_sizes_skip_curve(self, fgn_csv, tmp_path, capsys, report):
        outdir = tmp_path / "p6"
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--plot-dir", str(outdir), "--report", report, "--small-world",
                    "--prefix-sizes", ","]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "tsnet: skipping smallworld_curve.csv: no prefix sizes given"
        ]
        assert not (outdir / "smallworld_curve.csv").exists()

    def test_k4_degree_pdf(self, write_csv, tmp_path, capsys, report):
        path = write_csv("value\n0\n1\n4\n9\n")
        outdir = tmp_path / "p2"
        assert run(["analyze", "--input", path, "--column", "value",
                    "--plot-dir", str(outdir), "--report", report]) == 0
        assert (outdir / "degree_pdf.csv").read_text() == "k,p\n3,1.0\n"
        assert not (outdir / "dfa_fluctuations.csv").exists()
        assert "dfa_fluctuations" in capsys.readouterr().err

    def test_failed_graph_skips_every_csv(self, write_csv, tmp_path, capsys, report):
        path = write_csv("value\n5.0\n")
        outdir = tmp_path / "p4"
        assert run(["analyze", "--input", path, "--plot-dir", str(outdir),
                    "--report", report, "--small-world"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "tsnet: skipping dfa_fluctuations.csv: "
            "n=1 leaves no valid scale (need n >= 32)",
            "tsnet: skipping degree_pdf.csv: need at least 2 observations, got 1",
            "tsnet: skipping smallworld_curve.csv: graph construction failed",
        ]
        assert list(outdir.iterdir()) == []

    def test_constant_dfa_zero(self, write_csv, tmp_path, report):
        # the Hurst fit of a constant series fails; F(n) is still written
        path = write_csv("value\n" + "3.5\n" * 64)
        outdir = tmp_path / "p5"
        assert run(["analyze", "--input", path, "--plot-dir", str(outdir),
                    "--report", report]) == 0
        lines = (outdir / "dfa_fluctuations.csv").read_text().splitlines()
        assert lines[0] == "n,F" and len(lines) > 1
        assert all(line.split(",")[1] == "0.0" for line in lines[1:])

    def test_linear_dfa_zero(self, tmp_path, report):
        src = tmp_path / "lin.csv"
        assert run(["gen", "--kind", "linear", "--n", "512",
                    "--out", str(src)]) == 0
        outdir = tmp_path / "p3"
        assert run(["analyze", "--input", str(src), "--column", "value",
                    "--plot-dir", str(outdir), "--report", report,
                    "--dfa-order", "2"]) == 0
        lines = (outdir / "dfa_fluctuations.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) < 1e-6 for line in lines)

    def test_report_unchanged_by_plot_dir(self, fgn_csv, tmp_path):
        argv = ["analyze", "--input", fgn_csv, "--column", "value",
                "--small-world", "--prefix-sizes", "64,256,600"]
        plain, plotted = tmp_path / "plain.json", tmp_path / "plotted.json"
        assert run(argv + ["--report", str(plain)]) == 0
        assert run(argv + ["--report", str(plotted),
                           "--plot-dir", str(tmp_path / "plots")]) == 0
        assert plotted.read_bytes() == plain.read_bytes()

    def test_each_stage_runs_once(self, fgn_csv, tmp_path, report, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(tsnet.report, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return counted

        for name in ("build_fast", "small_world_curve"):
            monkeypatch.setattr(tsnet.report, name, counting(name))
        assert run(["analyze", "--input", fgn_csv, "--column", "value",
                    "--small-world", "--prefix-sizes", "64,256",
                    "--report", report, "--plot-dir", str(tmp_path / "plots")]) == 0
        assert calls == ["build_fast", "small_world_curve"]
        assert (tmp_path / "plots" / "smallworld_curve.csv").exists()

    def test_plotdata_subcommand_is_gone(self, fgn_csv, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run(["plotdata", "--input", fgn_csv, "--out-dir", str(tmp_path)])
        assert exc_info.value.code == 2


class TestEntryPoint:
    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = readme.read_text().split("```")[1::2]
        commands = [line.split()[1:] for block in blocks
                    for line in block.splitlines() if line.startswith("tsnet ")]
        assert len(commands) >= 4
        for argv in commands:
            assert callable(build_parser().parse_args(argv).func)

    def test_readme_quick_start_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
        head, _, text = capsys.readouterr().out.partition("{")
        report = json.loads("{" + text)  # the last print is the report
        slope, intercept, r2, flat = head.splitlines()[6].split()
        assert report["small_world"]["slope"] == round(float(slope), 6)
        assert report["small_world"]["flat"] is (flat == "True")

    def test_analyze_loads_no_network_stack(self, fgn_csv, tmp_path):
        # a fresh interpreter, so no other test's imports count; only fetch
        # needs the network stack, and only its xlsx reader an XML parser
        script = textwrap.dedent("""
            import sys
            import tsnet.cli
            LAZY = ("urllib.request", "http.client", "ssl", "socket", "email",
                    "xml.etree.ElementTree", "pyexpat")
            print(sorted(m for m in LAZY if m in sys.modules))
            argv = ["analyze", "--input", sys.argv[1], "--small-world",
                    "--report", sys.argv[2], "--plot-dir", sys.argv[3]]
            assert tsnet.cli.main(argv) == 0
            print(sorted(m for m in LAZY if m in sys.modules))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run(
            [sys.executable, "-c", script, fgn_csv,
             str(tmp_path / "r.json"), str(tmp_path / "plots")],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.splitlines() == ["[]", "[]"]

    def test_version_module_consistency(self):
        import tsnet

        assert tsnet.__version__ == "0.1.0"

    def test_all_lists_the_public_names(self):
        # pydoc documents a package's functions and classes only through
        # __all__, as they are defined in its submodules
        import inspect
        import pydoc

        import tsnet

        public = {name for name, obj in vars(tsnet).items()
                  if not name.startswith("_") and not inspect.ismodule(obj)}
        assert len(tsnet.__all__) == len(set(tsnet.__all__))
        assert set(tsnet.__all__) == public | {"__version__"}
        doc = pydoc.render_doc(tsnet, renderer=pydoc.plaintext)
        assert [name for name in public if name not in doc] == []
