"""Command line interface.

    tsnet analyze --input series.csv --column epu [--report out.json]
                  [--plot-dir plots/]
    tsnet gen     --kind fgn --n 16384 --hurst 0.8 --seed 42 --out s.csv
    tsnet fetch   us-daily --out-dir data/

Exit codes: 0 success, 1 runtime error (bad input file, network failure,
unusable data), 2 usage error.  Stage-level degeneracies during analyze
are recorded inside the report rather than aborting the run.
"""

from __future__ import annotations

import argparse
import bisect
import sys
from pathlib import Path

from .errors import EmptySeries, TsnetError
from ._fit import log_spaced_ints
from .fetch import DATASETS, fetch_dataset
from .generators import KINDS, GeneratorSpec, generate
from .report import build_report, canonical_json, run_stages
from .series import TimeSeries, from_csv


def _scale_grid(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected MIN:MAX:COUNT, got {text!r}"
        )
    try:
        lo, hi, count = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers in MIN:MAX:COUNT, got {text!r}"
        ) from None
    if lo < 2 or hi < lo or count < 1:
        raise argparse.ArgumentTypeError(f"bad scale grid {text!r}")
    return [int(s) for s in log_spaced_ints(lo, hi, count)]


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _load_series(path: str, column: str, date_end: str | None) -> TimeSeries:
    """Read the value column; with ``date_end``, cut it at that date.

    The date column follows :func:`from_csv`'s rule for the name "date".
    """
    col: str | int = int(column) if column.lstrip("-").isdigit() else column
    data = Path(path).read_bytes()
    date_col = "date" if date_end else None
    ts = from_csv(data, column=col, date_column=date_col, label=Path(path).name)
    if not date_end:
        return ts
    # stamps increase strictly, so their prefixes never decrease
    keep = bisect.bisect_right(
        ts.timestamps, date_end, key=lambda s: s[: len(date_end)]
    )
    if keep == 0:
        raise EmptySeries(f"no rows on or before {date_end}")
    return ts.prefix(keep)


def _cmd_analyze(args) -> int:
    ts = _load_series(args.input, args.column, args.date_end)
    stages = run_stages(
        ts,
        dfa_order=args.dfa_order,
        dfa_scales=args.dfa_scales,
        tail_kmin=args.tail_kmin,
        small_world=args.small_world,
        prefix_sizes=args.prefix_sizes,
    )
    report = build_report(stages, source={"path": args.input, "column": args.column})
    text = canonical_json(report)
    if args.report:
        Path(args.report).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)
    if args.plot_dir:
        _write_plots(stages, Path(args.plot_dir))
    return 0


def _write_plots(stages: dict, outdir: Path) -> None:
    """Write the plot-ready CSVs; name each one that cannot be written on stderr."""
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [
        ("dfa_fluctuations.csv", "n,F", stages["dfa"], lambda r: (r.scales, r.fluctuations)),
        ("degree_pdf.csv", "k,p", stages["dist"], lambda d: (d.support, d.pdf)),
    ]
    if stages["curve"] is not None:
        outputs.append(
            ("smallworld_curve.csv", "N,L", stages["curve"], lambda c: (c.sizes, c.lengths))
        )
    for name, header, result, columns in outputs:
        if isinstance(result, TsnetError):
            print(f"tsnet: skipping {name}: {result}", file=sys.stderr)
            continue
        rows = "".join(f"{int(x)},{float(y)!r}\n" for x, y in zip(*columns(result)))
        (outdir / name).write_text(f"{header}\n{rows}", newline="\n")


def _cmd_gen(args) -> int:
    params = {}
    for key in ("value", "slope", "intercept", "period", "amplitude", "hurst"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    ts = generate(GeneratorSpec(kind=args.kind, n=args.n, seed=args.seed, params=params))
    lines = ["index,value\n"]
    lines.extend(f"{i},{float(v)!r}\n" for i, v in enumerate(ts.values))
    text = "".join(lines)
    if args.out:
        Path(args.out).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fetch(args) -> int:
    result = fetch_dataset(
        args.dataset, url=args.url, out_dir=args.out_dir, timeout=args.timeout
    )
    print(f"wrote {result.csv_path} ({result.rows} rows)")
    print(f"manifest {result.manifest_path} sha256={result.sha256[:16]}...")
    if result.dropped_rows:
        print(
            f"warning: dropped {result.dropped_rows} dated row(s) whose date or "
            "value cell does not parse (dropped_rows in the manifest)",
            file=sys.stderr,
        )
    if not result.vintage_matches:
        print(
            f"warning: row count {result.rows} differs from the reference "
            f"vintage ({DATASETS[args.dataset].reference_rows}); "
            "published statistics may not reproduce exactly",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsnet",
        description="Visibility-graph and scaling analysis of univariate time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report as canonical JSON")
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument(
        "--column",
        default="value",
        help="value column name or zero-based index (default: value)",
    )
    p.add_argument(
        "--date-end",
        default=None,
        metavar="YYYY-MM[-DD]",
        help="keep only rows dated on or before this (prefix match allowed); "
        "dates come from the column named 'date' (any case), else the first "
        "whose header contains 'date'",
    )
    p.add_argument(
        "--dfa-order", type=int, default=2, help="detrending polynomial order"
    )
    p.add_argument(
        "--dfa-scales",
        type=_scale_grid,
        default=None,
        metavar="MIN:MAX:COUNT",
        help="log-spaced DFA scale grid (default: 8 to n/4, 20 scales)",
    )
    p.add_argument(
        "--prefix-sizes",
        type=_int_list,
        default=None,
        metavar="N1,N2,...",
        help="growing-window sizes for the small-world curve (needs --small-world)",
    )
    p.add_argument("--report", default=None, help="write JSON here instead of stdout")
    p.add_argument(
        "--plot-dir",
        default=None,
        help="also write plot-ready CSV curves (DFA, degree pdf, L(N)) here",
    )
    p.add_argument(
        "--small-world",
        action="store_true",
        help="include the growing-window L(N) section (slow on long series)",
    )
    p.add_argument(
        "--tail-kmin",
        type=int,
        default=None,
        help="lower degree bound for the tail fit (default: ceil of mean degree)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="write a synthetic series as index,value CSV")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--value", type=float, default=None, help="constant level")
    p.add_argument("--slope", type=float, default=None, help="linear slope")
    p.add_argument("--intercept", type=float, default=None, help="linear intercept")
    p.add_argument("--period", type=float, default=None, help="sawtooth/periodic period")
    p.add_argument("--amplitude", type=float, default=None, help="periodic amplitude")
    p.add_argument("--hurst", type=float, default=None, help="fgn Hurst exponent")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fetch", help="download and normalize a public dataset")
    p.add_argument("dataset", choices=sorted(DATASETS))
    p.add_argument("--url", default=None, help="override the source URL (file:// ok)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=_cmd_fetch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "prefix_sizes", None) is not None and not args.small_world:
        parser.error("--prefix-sizes needs --small-world")
    try:
        return args.func(args)
    except (TsnetError, OSError) as exc:
        print(f"tsnet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
