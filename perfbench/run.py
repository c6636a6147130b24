"""qclab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qclab source checkout; qclab is imported from
``src/``.  The run draws base points uniformly from the workload chart's
declared box with ``--seed``, passes them to ``qclab.cli.main`` in-process as
explicit ``--points`` lists (stdout captured, CSV output), batch after batch
until ``--seconds`` of CLI wall time is used, and checks every output row.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``attempted`` counts base points; ``failed`` counts those whose output
  fails a check (a wrong-side verdict, a residual over its tolerance, a row
  that does not match its point).  A CLI exception, a usage-error exit or a
  byte-identity mismatch fails every attempted point and sets ``correct``
  to false; ``correct`` is true when every output was produced and checked.
* ``--trace 0``: the end-to-end metrics ``points_per_s``,
  ``cpu_s_per_point``, ``setup_s`` and ``peak_rss_mb``.
* ``--trace 1``: the per-layer metrics of a traced pass at ``--threads 1``
  (see ``tracer.py``), followed by an untraced replay of the same points
  whose output must be byte-identical.  The line before the result is one
  JSON object ``{"frame_counts": {span: [counts]}, "scal_at_calls": n}``:
  the distinct ``frame_field`` call counts under each point-level span that
  returned, and the number of ``scal_at`` calls, for the count self-check
  of ``report.py``.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``sweep-einstein``: ``sweep --fiber 8`` on the curved qc-Einstein chart of
  ``qc_einstein.qc`` (tau = 4).  Check: every verdict is ``normal``.
* ``oracle-torsion``: ``normality --oracle --fiber 2`` on
  ``heisenberg-1-conformal``.  Check: every verdict is ``not_normal`` and
  ``oracle_deviation <= tol.oracle``.
* ``invariants-n2``: ``invariants`` on ``heisenberg-2``.  Check:
  ``t0_norm <= tol.t0`` and ``ricci_residual <= tol.ricci_decomposition``.
* ``invariants-n2-t2``: the same points with ``--threads 2``.  Same checks,
  and the first batch must be byte-identical to its ``--threads 1`` output.

Tolerances are qclab's own ``DEFAULT_TOLERANCES``.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from tracer import Tracer, frames_per_point_span, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EINSTEIN_CONFIG = os.path.join(HERE, "qc_einstein.qc")
SETUP_PROBES = 10         # fewest timed set-up probes per run


def check_normal(row, tol):
    if row["verdict"] != "normal":
        return (f"verdict {row['verdict']} on the normal side "
                f"(normality_residual {row['normality_residual']})")
    return None


def check_not_normal(row, tol):
    if row["verdict"] != "not_normal":
        return f"verdict {row['verdict']} on the torsion side"
    if not float(row["oracle_deviation"]) <= tol.oracle:
        return f"oracle_deviation {row['oracle_deviation']} > {tol.oracle}"
    return None


def check_invariants(row, tol):
    if not float(row["t0_norm"]) <= tol.t0:
        return f"t0_norm {row['t0_norm']} > {tol.t0}"
    if not float(row["ricci_residual"]) <= tol.ricci_decomposition:
        return (f"ricci_residual {row['ricci_residual']} > "
                f"{tol.ricci_decomposition}")
    return None


@dataclass(frozen=True)
class Workload:
    command: tuple          # subcommand and its flags, before --points
    chart: tuple            # ("--chart", name) or ("--config", path)
    threads: int
    batch: int              # base points per cli.main call
    rows_per_point: int
    check: object           # row, tolerances -> failure text or None


WORKLOADS = {
    "sweep-einstein": Workload(("sweep", "--fiber", "8"),
                               ("--config", EINSTEIN_CONFIG), 1, 1, 8,
                               check_normal),
    "oracle-torsion": Workload(("normality", "--oracle", "--fiber", "2"),
                               ("--chart", "heisenberg-1-conformal"), 1, 1, 2,
                               check_not_normal),
    "invariants-n2": Workload(("invariants",), ("--chart", "heisenberg-2"),
                              1, 4, 1, check_invariants),
    "invariants-n2-t2": Workload(("invariants",), ("--chart", "heisenberg-2"),
                                 2, 4, 1, check_invariants),
}


class HarnessError(Exception):
    """The run could not call the CLI or compare its outputs."""


@dataclass
class Call:
    """One ``cli.main`` call: its points, exit code, captured streams, wall
    seconds and CPU seconds of the process and its reaped workers."""

    points: list
    code: int
    out: str
    err: str
    wall: float
    cpu: float


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


def _points_arg(points):
    # passed as "--points=..." so that a list starting with "-" is a value
    return "--points=" + ";".join(",".join(repr(float(v)) for v in p)
                                  for p in points)


class Runner:
    """Calls ``cli.main`` for one workload."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.attempted = 0      # base points sent in timed passes

    def call(self, points, threads):
        argv = [*self.wl.command, *self.wl.chart, _points_arg(points),
                "--seed", str(self.seed), "--format", "csv",
                "--threads", str(threads)]
        out, err = io.StringIO(), io.StringIO()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        call = Call(points, code, out.getvalue(), err.getvalue(),
                    time.perf_counter() - t0, _cpu_s() - cpu0)
        # Exit 2 is a usage error (the harness built a bad command line) or
        # a qclab error at a point; only the latter is the program's result.
        if code not in (0, 1, 2) or "usage:" in call.err:
            raise HarnessError(f"cli exit {code}: {call.err.strip()}")
        return call

    def timed_pass(self, batches, seconds, threads, between=None):
        """Call batch after batch until the next would pass ``seconds``;
        ``between()``, if given, runs after each call, outside its timing."""
        calls = []
        spent = 0.0
        for points in batches:
            self.attempted += len(points)
            calls.append(self.call(points, threads))
            spent += calls[-1].wall
            if between is not None:
                between()
            if spent + spent / len(calls) > seconds:
                break
        return calls

    def replay(self, calls, threads):
        return [self.call(c.points, threads) for c in calls]


def point_batches(seed, box, size):
    """Endless stream of point batches, uniform in ``box``, fixed by seed."""
    import numpy as np
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    while True:
        yield list(lo + (hi - lo) * rng.random((size, len(box))))


@dataclass
class Checked:
    attempted: int = 0
    completed: int = 0      # points with all their output rows
    failed: int = 0
    rows: list = field(default_factory=list)
    messages: list = field(default_factory=list)


def check_calls(calls, workload, tol):
    """Check every output row of every point."""
    result = Checked()
    for call in calls:
        rows = list(csv.DictReader(io.StringIO(call.out)))
        result.rows.extend(rows)
        for index, point in enumerate(call.points):
            result.attempted += 1
            mine = [r for r in rows if r.get("index") == str(index)]
            problem = None
            if call.code == 2:
                problem = call.err.strip()
            elif len(mine) != workload.rows_per_point:
                problem = f"{len(mine)} rows, expected {workload.rows_per_point}"
            else:
                result.completed += 1
                for row in mine:
                    coords = [float(row[f"u{i + 1}"]) for i in range(len(point))]
                    if coords != [float(v) for v in point]:
                        problem = "row coordinates differ from the point"
                    else:
                        problem = workload.check(row, tol)
                    if problem:
                        break
            if problem:
                result.failed += 1
                result.messages.append(
                    f"point {[float(v) for v in point]}: {problem}")
    return result


def same_output(first, second, what):
    for a, b in zip(first, second):
        if (a.code, a.out) != (b.code, b.out):
            raise HarnessError(f"{what}: outputs differ")


class SetupProbe:
    """Times import + chart resolution in a fresh interpreter per call.

    The machine's speed drifts over seconds, so the probes are spread over
    the timed pass (one after each CLI call) rather than run in a row.  A
    probe's peak RSS is below the run's own, which has loaded the same
    modules, so probes do not move ``peak_rss_mb``."""

    def __init__(self, workload):
        self.env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
                        + os.environ.get("PYTHONPATH", ""))
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                     *workload.chart]
        self.times = []
        self()
        self.times.clear()      # the first probe fills file caches

    def __call__(self):
        done = subprocess.run(self.argv, env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.times.append(result["import_s"] + result["chart_s"])

    def median(self):
        while len(self.times) < SETUP_PROBES:
            self()
        return statistics.median(self.times)


def diagnostics(rows):
    def column_max(name):
        values = [float(r[name]) for r in rows if r.get(name) not in (None, "")]
        return max(values) if values else 0.0

    return {
        "curvature.ricci_residual_max": column_max("ricci_residual"),
        "twistor.normality_residual_max": column_max("normality_residual"),
        "twistor.oracle_dev_max": column_max("oracle_deviation"),
        "connection.t0_norm_max": column_max("t0_norm"),
    }


def run_untraced(runner, batches, seconds, tol):
    wl = runner.wl
    first = next(batches)
    if wl.threads > 1:
        # the threads-1 reference for the byte-identity check, untimed
        reference = runner.call(first, 1)
    else:
        # untimed warm-up: chart resolution and one frame, discarded
        with contextlib.redirect_stdout(io.StringIO()):
            runner.cli.main(["validate", *wl.chart, _points_arg(first[:1])])

    def stream():
        yield first
        yield from batches

    probe = SetupProbe(wl)
    calls = runner.timed_pass(stream(), seconds, wl.threads, between=probe)
    peak = _peak_rss_mb()
    if wl.threads > 1:
        same_output([reference], calls[:1],
                    f"--threads 1 vs --threads {wl.threads}")
    checked = check_calls(calls, wl, tol)
    # Times are per completed point over the calls that completed: a call
    # that ends in a qclab error (exit 2) completes none of its points, and
    # its cost would otherwise vary the metrics with how many points a seed
    # draws that fail.  Those points are counted in ``failed``.
    completed = [c for c in calls if c.code != 2] or calls
    done = max(checked.completed, 1)
    metrics = {
        "points_per_s": (checked.completed / sum(c.wall for c in completed),
                         "1/s"),
        "cpu_s_per_point": (sum(c.cpu for c in completed) / done, "s"),
        "setup_s": (probe.median(), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return checked, metrics


def run_traced(runner, batches, seconds, tol):
    wl = runner.wl
    tracer = Tracer()
    tracer.install()
    try:
        # half the budget: the untraced replays take about as long again
        traced = runner.timed_pass(batches, seconds / 2, 1)
    finally:
        tracer.uninstall()
    untraced = runner.replay(traced, 1)
    same_output(traced, untraced, "traced vs untraced")
    parallel = untraced
    if wl.threads > 1:
        parallel = runner.replay(traced, wl.threads)
        same_output(untraced, parallel, f"--threads 1 vs --threads {wl.threads}")

    checked = check_calls(traced, wl, tol)
    metrics = layer_metrics(tracer.spans, max(checked.completed, 1),
                            max(len(checked.rows), 1))
    metrics["cli.worker_util"] = (sum(c.cpu for c in parallel)
                                  / (wl.threads * sum(c.wall for c in parallel)))
    metrics["trace.overhead_frac"] = (sum(c.wall for c in traced)
                                      / sum(c.wall for c in untraced) - 1.0)
    metrics.update(diagnostics(checked.rows))
    counts = {name: sorted(set(seen)) for name, seen
              in frames_per_point_span(tracer.spans).items()}
    print(json.dumps({"frame_counts": counts, "scal_at_calls": sum(
        span[0] == "curvature.scal_at" for span in tracer.spans)}))
    return checked, {name: (value, _unit(name))
                     for name, value in metrics.items()}


def _unit(name):
    if "calls_per" in name or name.endswith("frames_per_call"):
        return "count"
    if name.endswith(("_s", "_s_per_point", "_s_per_row", "_s_per_call")):
        return "s"
    if name.endswith("_max"):
        return "1"          # dimensionless residual
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qclab", "cli.py")):
        print(f"run.py: no qclab sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import qclab.cli as cli
    from qclab.catalog import get_chart, load_config
    from qclab.tolerances import DEFAULT_TOLERANCES as tol

    wl = WORKLOADS[args.workload]
    kind, value = wl.chart
    chart = load_config(value)[0] if kind == "--config" else get_chart(value)
    box = chart.domain_box or tuple((-1.0, 1.0) for _ in range(chart.m))
    batches = point_batches(args.seed, box, wl.batch)
    runner = Runner(cli, wl, args.seed)
    run = run_traced if args.trace else run_untraced
    try:
        checked, metrics = run(runner, batches, args.seconds, tol)
    except Exception:
        # The CLI raised, could not be driven, or outputs that must agree
        # differ: every attempted point fails.  The traceback says where.
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, runner.attempted),
                          "failed": max(1, runner.attempted), "metrics": {}}))
        return 0
    for message in checked.messages[:5]:
        print(f"{args.workload}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": True, "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
