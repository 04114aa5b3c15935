"""Command-line entry points: validate a scenario, run it and export the
report, or compare two finished report directories.

Exit codes: 0 success, 1 validation error, 2 conservation-audit failure,
3 I/O error: a spool or report that cannot be written, or a closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from pathlib import Path

from . import engine, stats
from .scenario import ScenarioError, apply_overrides, loads_scenario
from .scheduling import ALL_CLASSES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_AUDIT = 2
EXIT_IO = 3


def _load(name: str, overrides: list[str]):
    path = Path(name)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"scenario {name!r}: {e}") from None
    if overrides:
        text = apply_overrides(text, overrides)
    return loads_scenario(text, base_dir=str(path.parent))


def cmd_validate(args) -> int:
    try:
        cfg = _load(args.scenario, args.set or [])
        cfg.load_grid()
    except ScenarioError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"ok: {args.scenario} ({cfg.routing.strategy}, {cfg.run.duration_s:g}s, "
          f"seed {cfg.run.seed})")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        sim = engine.Simulation(_load(args.scenario, args.set or []))
        with closing(sim.stats) as report:  # its spools, however the run or export ends
            sim.run()
            stats.export(report, Path(args.out))
    except ScenarioError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:  # a trace spool or the report could not be written
        print(f"cannot write the report: {e}", file=sys.stderr)
        return EXIT_IO
    ok = engine.conservation_audit(report)
    print(
        f"generated={report.generated_total()} delivered={report.delivered_total()} "
        f"dropped={report.dropped_total()} residual={report.residual} "
        f"audit={'pass' if ok else 'FAIL'}"
    )
    for cls in ALL_CLASSES:
        ratio = report.throughput_ratio(cls)
        cdf = report.delay_cdf(cls)
        p90 = f"{cdf.quantile(0.9) * 1000:.1f}ms" if len(cdf) else "-"
        print(
            f"  {cls.name}: generated={report.generated[cls]} "
            f"ratio={'-' if ratio is None else f'{ratio:.4f}'} p90={p90}"
        )
    if not ok:
        print("conservation audit FAILED", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


class ReportError(Exception):
    """A report file that reads but does not hold what `export` writes."""


def _read_summary(report_dir: Path) -> tuple[dict, dict]:
    meta_path = report_dir / "run_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ReportError(f"{meta_path}: not a JSON object")
    rows = {}
    summary_path = report_dir / "summary.csv"
    lines = summary_path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ReportError(f"{summary_path}: empty")
    header = lines[0].split(",")
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        row = dict(zip(header, cells))
        rows[row["class"]] = row
    return meta, rows


def _num(row: dict, key: str):
    v = row.get(key, "")
    if not v:
        return None
    try:
        return float(v)
    except ValueError:
        raise ReportError(f"{key} of class {row['class']}: not a number: {v!r}") from None


def compare(dir_a, dir_b) -> list[dict]:
    """Per-class deltas (b minus a) of p90 delay, mean delay, throughput ratio,
    and mean hops between two report directories."""
    a_meta, a_rows = _read_summary(Path(dir_a))
    b_meta, b_rows = _read_summary(Path(dir_b))
    if a_meta["horizon_s"] != b_meta["horizon_s"]:
        raise ValueError(
            f"mismatched horizons: {a_meta['horizon_s']} vs {b_meta['horizon_s']}"
        )
    if set(a_rows) != set(b_rows):
        raise ValueError("mismatched class sets")
    out = []
    for cls in a_rows:
        ra, rb = a_rows[cls], b_rows[cls]
        row = {"class": cls}
        for key in ("p90_delay_ms", "mean_delay_ms", "throughput_ratio", "mean_hops"):
            va, vb = _num(ra, key), _num(rb, key)
            row[key + "_a"] = va
            row[key + "_b"] = vb
            row[key + "_delta"] = (vb - va) if va is not None and vb is not None else None
        out.append(row)
    return out


def cmd_compare(args) -> int:
    try:
        rows = compare(args.report_a, args.report_b)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ReportError) as e:
        print(f"cannot read reports: {e}", file=sys.stderr)
        return EXIT_IO
    except KeyError as e:
        print(f"cannot read reports: no {e} field", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"incomparable reports: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{'class':5s} {'p90_ms A':>10s} {'p90_ms B':>10s} {'d_p90':>8s} "
          f"{'ratio A':>8s} {'ratio B':>8s} {'d_ratio':>8s} {'hops A':>7s} {'hops B':>7s}")
    for row in rows:
        def f(v, nd=1):
            return "-" if v is None else f"{v:.{nd}f}"
        print(
            f"{row['class']:5s} {f(row['p90_delay_ms_a']):>10s} {f(row['p90_delay_ms_b']):>10s} "
            f"{f(row['p90_delay_ms_delta']):>8s} {f(row['throughput_ratio_a'], 4):>8s} "
            f"{f(row['throughput_ratio_b'], 4):>8s} {f(row['throughput_ratio_delta'], 4):>8s} "
            f"{f(row['mean_hops_a'], 2):>7s} {f(row['mean_hops_b'], 2):>7s}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leoqsim",
        description="LEO constellation network simulator with QoS scheduling "
        "and congestion-aware backup routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                   help="override a config key (repeatable)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario and export the report")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--out", default="report", help="report output directory")
    p.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                   help="override a config key (repeatable)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="per-class deltas between two reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:  # the recipe in Python's `signal` docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
