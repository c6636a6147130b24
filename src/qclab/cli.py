"""Command-line front end.

Subcommands: list | validate | invariants | normality | identities | sweep.
Reports are self-describing (they embed the tolerances and step sizes used)
and deterministic: a fixed chart, point budget and seed produce byte-identical
output regardless of the thread count.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 input or
usage error.
"""

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from . import suite, twistor as tw
from .catalog import builtin_charts, get_chart, load_config
from .chart import frame_field
from .curvature import FrozenPivotStage
from .errors import QCLabError
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES

SCHEMA_VERSION = 1


def _fmt(x):
    """17 significant digits, '.' decimal, no locale."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _fmt_text(x):
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _render(report, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(report, indent=2, default=_json_default))
        stream.write("\n")
        return
    columns = report.get("columns", [])
    rows = report.get("rows", [])
    if fmt == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")
        return
    # text
    widths = {c: max(len(c), *(len(_fmt_text(r.get(c, ""))) for r in rows))
              if rows else len(c) for c in columns}
    stream.write("  ".join(c.ljust(widths[c]) for c in columns) + "\n")
    for row in rows:
        stream.write("  ".join(
            _fmt_text(row.get(c, "")).ljust(widths[c]) for c in columns) + "\n")
    summary = report.get("summary")
    if summary:
        stream.write("summary: " + ", ".join(
            f"{k}={_fmt_text(v)}" for k, v in summary.items()) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _thread_default():
    env = os.environ.get("QCLAB_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _parallel_map(fn, items, threads):
    """Order-preserving map; worker processes give real parallelism across
    evaluation points and results are assembled by index, so the output does
    not depend on the worker count.  ``fn`` must be picklable (a partial of
    a module-level function)."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _add_fiber(p, default=2):
    p.add_argument("--fiber", type=int, default=default,
                   help="fibre samples per base point")


def _add_common(p):
    p.add_argument("--chart", help="catalog chart name")
    p.add_argument("--config", help="chart configuration file")
    p.add_argument("--points", default="5",
                   help="sample count, or explicit points "
                        "'c1,c2,...;c1,c2,...'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: QCLAB_THREADS or 1)")
    p.add_argument("--no-validate", action="store_true",
                   help="skip validation when loading a config file")
    p.add_argument("--fd-step", type=float, default=None,
                   help=f"first-derivative step (default {DEFAULT_STEPS.fd})")
    p.add_argument("--curv-step", type=float, default=None,
                   help="curvature step h; the full curvature is extrapolated "
                        f"from h and h/2 (default {DEFAULT_STEPS.curv})")
    p.add_argument("--tol-normal", type=float, default=None)
    p.add_argument("--tol-t0", type=float, default=None)
    p.add_argument("--tol-reeb", type=float, default=None)
    p.add_argument("--tol-connection", type=float, default=None)
    p.add_argument("--tol-ricci", type=float, default=None)
    p.add_argument("--tol-oracle", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qclab",
        description="Quaternionic contact geometry laboratory: frames, "
                    "torsion invariants, curvature and twistor normality "
                    "reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog charts") \
       .add_argument("--format", choices=("text", "json", "csv"),
                     default="text")

    p = sub.add_parser("validate",
                       help="run structure recovery and frame invariants")
    _add_common(p)

    p = sub.add_parser("invariants",
                       help="torsion invariants, Scal, tau per point")
    _add_common(p)

    p = sub.add_parser("normality",
                       help="normality verdicts at twistor points")
    _add_common(p)
    _add_fiber(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the finite-difference Lie-derivative "
                        "oracle and report the agreement")
    p.add_argument("--gauge-pipeline", action="store_true",
                   help="evaluate reports through the rotated-chart "
                        "pipeline instead of algebraic rotation")

    p = sub.add_parser("identities", help="full identity suite")
    _add_common(p)
    _add_fiber(p, default=1)

    p = sub.add_parser("sweep",
                       help="grid sweep over base and fibre points (CSV)")
    _add_common(p)
    _add_fiber(p)
    p.set_defaults(format="csv")
    return parser


def _resolve_numerics(args):
    tol = DEFAULT_TOLERANCES
    overrides = {}
    for flag, name in (("tol_normal", "normal"), ("tol_t0", "t0"),
                       ("tol_reeb", "reeb"), ("tol_connection", "connection"),
                       ("tol_ricci", "ricci_decomposition"),
                       ("tol_oracle", "oracle")):
        value = getattr(args, flag, None)
        if value is not None:
            if value <= 0:
                raise ValueError(f"--{flag.replace('_', '-')}: must be positive")
            overrides[name] = value
    if overrides:
        tol = tol.updated(**overrides)
    steps = DEFAULT_STEPS
    step_overrides = {}
    if getattr(args, "fd_step", None) is not None:
        if args.fd_step <= 0:
            raise ValueError("--fd-step must be positive")
        step_overrides["fd"] = args.fd_step
    if getattr(args, "curv_step", None) is not None:
        if args.curv_step <= 0:
            raise ValueError("--curv-step must be positive")
        step_overrides["curv"] = args.curv_step
    if step_overrides:
        steps = steps.updated(**step_overrides)
    return tol, steps


def _resolve_chart(args, tol):
    if getattr(args, "config", None):
        chart, _ = load_config(args.config,
                               validate=not args.no_validate, tol=tol)
        return chart, args.config
    name = getattr(args, "chart", None)
    if not name:
        raise ValueError("one of --chart or --config is required")
    return get_chart(name), name


def _resolve_points(args, chart):
    text = str(args.points)
    if ";" in text or "," in text:
        points = []
        for item in text.split(";"):
            coords = [float(tok) for tok in item.split(",") if tok.strip()]
            if len(coords) != chart.m:
                raise ValueError(
                    f"explicit point has {len(coords)} coordinates, "
                    f"chart dimension is {chart.m}")
            points.append(np.array(coords))
        return points
    count = int(text)
    if count <= 0:
        raise ValueError("--points must be positive")
    return list(chart.sample_points(count, args.seed))


def _resolve_fibres(args):
    if args.fiber < 1:
        raise ValueError("--fiber must be positive")
    return tw.fibonacci_sphere(args.fiber)


def _base_report(args, command, chart_label, chart, tol, steps):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "chart": chart_label,
        "n": chart.n,
        "dimension": chart.m,
        "seed": args.seed,
        "tolerances": asdict(tol),
        "steps": asdict(steps),
    }


def _point_columns(chart):
    return [f"u{i + 1}" for i in range(chart.m)]


def _put_point(row, u):
    for i, v in enumerate(u):
        row[f"u{i + 1}"] = float(v)


def cmd_list(args):
    rows = []
    for name, entry in sorted(builtin_charts().items()):
        rows.append({"name": name, "n": entry["n"],
                     "dimension": 4 * entry["n"] + 3,
                     "description": entry["description"]})
    report = {"schema_version": SCHEMA_VERSION, "command": "list",
              "columns": ["name", "n", "dimension", "description"],
              "rows": rows}
    _render(report, args.format, sys.stdout)
    return 0


def _validate_work(chart, tol, item):
    index, u = item
    row = {"index": index}
    _put_point(row, u)
    try:
        fr = frame_field(chart, u, tol=tol)
        residuals, bad = fr.check(tol)
        if bad:
            worst = max(bad, key=bad.get)
            row.update(status="fail", worst_check=worst,
                       worst_residual=bad[worst])
        else:
            worst = max(residuals, key=residuals.get)
            row.update(status="pass", worst_check=worst,
                       worst_residual=residuals[worst])
    except QCLabError as exc:
        row.update(status="error", worst_check=type(exc).__name__,
                   worst_residual=getattr(exc, "residual", float("nan"))
                   or float("nan"))
    return row


def cmd_validate(args):
    tol, steps = _resolve_numerics(args)
    chart, label = _resolve_chart(args, tol)
    points = _resolve_points(args, chart)
    threads = args.threads if args.threads is not None else _thread_default()

    work = functools.partial(_validate_work, chart, tol)
    rows = _parallel_map(work, list(enumerate(points)), threads)
    failed = sum(r["status"] != "pass" for r in rows)
    report = _base_report(args, "validate", label, chart, tol, steps)
    report["columns"] = ["index", "status", "worst_check", "worst_residual"] \
        + _point_columns(chart)
    report["rows"] = rows
    report["summary"] = {"points": len(rows), "failed": failed}
    _render(report, args.format, sys.stdout)
    return 0 if failed == 0 else 1


def _invariants_work(chart, steps, tol, item):
    index, u = item
    row = {"index": index}
    _put_point(row, u)
    row.update(suite.invariants_row(chart, u, steps, tol))
    return row


def cmd_invariants(args):
    tol, steps = _resolve_numerics(args)
    chart, label = _resolve_chart(args, tol)
    points = _resolve_points(args, chart)
    threads = args.threads if args.threads is not None else _thread_default()

    work = functools.partial(_invariants_work, chart, steps, tol)
    rows = _parallel_map(work, list(enumerate(points)), threads)
    report = _base_report(args, "invariants", label, chart, tol, steps)
    report["columns"] = (["index"] + _point_columns(chart)
                         + ["t0_norm", "u_norm", "scal", "tau",
                            "ricci_residual"])
    report["rows"] = rows
    report["summary"] = {
        "points": len(rows),
        "max_t0_norm": max(r["t0_norm"] for r in rows),
        "max_ricci_residual": max(r["ricci_residual"] for r in rows),
    }
    _render(report, args.format, sys.stdout)
    return 0


def _normality_work(chart, steps, tol, fibre_points, gauge_pipeline, oracle,
                    seed, item):
    index, u = item
    out = []
    if gauge_pipeline:
        stage = FrozenPivotStage(chart, u, steps, tol) if oracle else None
    else:
        base = tw.base_point_data(chart, u, steps=steps, tol=tol)
        stage = base.stage
    for k, x in enumerate(fibre_points):
        if gauge_pipeline:
            rep = tw.lie_chi_G(chart, u, x, steps=steps, tol=tol)
        else:
            rep = tw.report_from_base(base, x, tol=tol)
        row = {"index": index, "fiber": k}
        _put_point(row, u)
        row.update(x1=float(x[0]), x2=float(x[1]), x3=float(x[2]),
                   normality_residual=rep.normality_residual,
                   t0_norm=rep.t0_norm, tau=rep.tau,
                   verdict=rep.verdict)
        if oracle:
            orac = tw.normality_direct_oracle(stage, x, sample_pairs=10,
                                              seed=seed, report=rep)
            row["oracle_deviation"] = orac["max_deviation"]
        out.append(row)
    return out


def cmd_normality(args):
    tol, steps = _resolve_numerics(args)
    chart, label = _resolve_chart(args, tol)
    points = _resolve_points(args, chart)
    threads = args.threads if args.threads is not None else _thread_default()
    fibre_points = _resolve_fibres(args)

    work = functools.partial(_normality_work, chart, steps, tol, fibre_points,
                             args.gauge_pipeline, args.oracle, args.seed)
    nested = _parallel_map(work, list(enumerate(points)), threads)
    rows = [row for group in nested for row in group]
    verdicts = {r["verdict"] for r in rows}
    if verdicts <= {"normal"}:
        summary_verdict = "normal"
    elif "inconclusive" in verdicts:
        summary_verdict = "inconclusive"
    elif "not_normal" in verdicts and "normal" not in verdicts:
        summary_verdict = "not_normal"
    else:
        summary_verdict = "mixed"
    failed = summary_verdict in ("inconclusive", "mixed")
    if args.oracle:
        worst = max(r["oracle_deviation"] for r in rows)
        failed = failed or worst > tol.oracle

    report = _base_report(args, "normality", label, chart, tol, steps)
    columns = (["index", "fiber"] + _point_columns(chart)
               + ["x1", "x2", "x3", "normality_residual", "t0_norm", "tau",
                  "verdict"])
    if args.oracle:
        columns.append("oracle_deviation")
    report["columns"] = columns
    report["rows"] = rows
    report["summary"] = {"verdict": summary_verdict,
                         "points": len(points), "fiber": args.fiber}
    if args.oracle:
        report["summary"]["max_oracle_deviation"] = worst
    _render(report, args.format, sys.stdout)
    return 0 if not failed else 1


def _identities_work(chart, steps, tol, fibre_points, seed, item):
    index, u = item
    x = fibre_points[index % len(fibre_points)]
    try:
        return index, suite.identity_suite(chart, u, x, steps=steps,
                                           tol=tol, seed=seed)
    except QCLabError as exc:
        result = suite.CheckResult(type(exc).__name__,
                                   getattr(exc, "residual", float("nan"))
                                   or float("nan"), float("nan"), "fail")
        return index, [result]


def cmd_identities(args):
    tol, steps = _resolve_numerics(args)
    chart, label = _resolve_chart(args, tol)
    points = _resolve_points(args, chart)
    threads = args.threads if args.threads is not None else _thread_default()
    fibre_points = _resolve_fibres(args)

    work = functools.partial(_identities_work, chart, steps, tol,
                             fibre_points, args.seed)
    results = _parallel_map(work, list(enumerate(points)), threads)

    aggregated = {}
    order = []
    for _, checks in results:
        for check in checks:
            if check.name not in aggregated:
                aggregated[check.name] = check
                order.append(check.name)
            else:
                prev = aggregated[check.name]
                if check.status == "fail" or (
                        prev.status != "fail"
                        and check.residual > prev.residual):
                    aggregated[check.name] = check
    rows = [{"check": name,
             "residual": aggregated[name].residual,
             "tolerance": aggregated[name].tolerance,
             "status": aggregated[name].status}
            for name in order]
    failed = sum(r["status"] == "fail" for r in rows)

    report = _base_report(args, "identities", label, chart, tol, steps)
    report["columns"] = ["check", "residual", "tolerance", "status"]
    report["rows"] = rows
    report["summary"] = {"points": len(points), "checks": len(rows),
                         "failed": failed}
    _render(report, args.format, sys.stdout)
    return 0 if failed == 0 else 1


def _sweep_work(chart, steps, tol, fibre_points, item):
    index, u = item
    base = tw.base_point_data(chart, u, steps=steps, tol=tol)
    out = []
    for k, x in enumerate(fibre_points):
        rep = tw.report_from_base(base, x, tol=tol)
        row = {"index": index, "fiber": k}
        _put_point(row, u)
        row.update(x1=float(x[0]), x2=float(x[1]), x3=float(x[2]),
                   t0_norm=rep.t0_norm,
                   u_norm=base.torsion.u_norm,
                   scal=base.curv.Scal, tau=rep.tau,
                   normality_residual=rep.normality_residual,
                   verdict=rep.verdict)
        out.append(row)
    return out


def cmd_sweep(args):
    tol, steps = _resolve_numerics(args)
    chart, label = _resolve_chart(args, tol)
    points = _resolve_points(args, chart)
    threads = args.threads if args.threads is not None else _thread_default()
    fibre_points = _resolve_fibres(args)

    work = functools.partial(_sweep_work, chart, steps, tol, fibre_points)
    nested = _parallel_map(work, list(enumerate(points)), threads)
    rows = [row for group in nested for row in group]
    report = _base_report(args, "sweep", label, chart, tol, steps)
    report["columns"] = (["index", "fiber"] + _point_columns(chart)
                         + ["x1", "x2", "x3", "t0_norm", "u_norm", "scal",
                            "tau", "normality_residual", "verdict"])
    report["rows"] = rows
    report["summary"] = {"rows": len(rows)}
    _render(report, args.format, sys.stdout)
    return 0


_COMMANDS = {
    "list": cmd_list,
    "validate": cmd_validate,
    "invariants": cmd_invariants,
    "normality": cmd_normality,
    "identities": cmd_identities,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, QCLabError) as exc:
        print(f"qclab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
