"""Run the whole qclab benchmark and print (and optionally record) it.

    python3 perfbench/report.py [--runs 10] [--out FILE]

From the root of a qclab source checkout.  For each workload in
BENCHMARK.json it makes ``--runs`` untraced runs of ``run.py`` (seeds 1, 2,
...), each in a fresh interpreter, and prints every end-to-end metric with
its unit, median, quartiles, spread ((q3 - q1) / median) and sample count,
plus ``failed_frac`` (points whose output fails a check / points attempted).
It then makes one traced run per workload, prints the per-layer metrics,
and runs the count self-check on it: frame evaluations per base point and
per oracle call, and tau-derivative calls on the bypass workloads, compared
with the counts at the baseline commit.  ``--out`` writes all of it, with
provenance, as JSON.  The exit code is 1 if a self-check fails or a traced
run is not correct.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Frame evaluations (frame_field calls) per point-level span at the baseline
# commit; a change to the pipeline that alters them shows up here.
BASELINE_COUNTS = {
    "sweep-einstein": {"twistor.base_point_data": 1035},
    "oracle-torsion": {"twistor.base_point_data": 1035,
                       "twistor.normality_direct_oracle": 661},
    "invariants-n2": {"suite.invariants_row": 391},
    "invariants-n2-t2": {"suite.invariants_row": 391},
}
# tau-derivative evaluations per point that must not happen (bypass workloads)
NO_SCAL_AT = ("invariants-n2", "invariants-n2-t2")


def run_once(bench, workload, seed, trace):
    """One run of ``run.py``: its stdout lines, parsed as JSON."""
    argv = [sys.executable, *bench["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return [json.loads(line) for line in done.stdout.strip().splitlines()]


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if median else None,
            "n": len(values), "values": values}


def count_selfcheck(name, counts):
    """Compare a traced run's frame-evaluation counts with the baseline."""
    ok = all(counts["frame_counts"].get(span) == [count]
             for span, count in BASELINE_COUNTS[name].items())
    if name in NO_SCAL_AT:
        ok = ok and counts["scal_at_calls"] == 0
    return dict(counts, expected=BASELINE_COUNTS[name], ok=ok)


def provenance(seeds, bench):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import qclab
    from qclab.tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "qclab": qclab.__version__, "numpy": numpy.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "seeds": seeds,
        "run_seconds": bench["run_seconds"],
        "steps": asdict(DEFAULT_STEPS), "tolerances": asdict(DEFAULT_TOLERANCES),
    }


def _fmt(x):
    return "-" if x is None else f"{x:.4g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the results as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two runs)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.runs + 1))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"provenance": provenance(seeds, bench), "end_to_end": {},
              "per_layer": {}, "count_selfcheck": {}}
    print(f"{'workload':18} {'metric':16} {'unit':5} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6} {'n':>3}")
    for name in names:
        runs = [run_once(bench, name, seed, 0)[-1] for seed in seeds]
        rows = {}
        for metric in units:
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r["metrics"]]
            if len(values) >= 2:    # runs that raised report no metrics
                rows[metric] = dict(summarise(values), unit=units[metric])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows["failed_frac"] = dict(summarise([r["failed"] / r["attempted"]
                                              for r in runs]),
                                   unit="ratio", attempted=attempted,
                                   failed=failed)
        rows["correct_runs"] = sum(bool(r["correct"]) for r in runs)
        report["end_to_end"][name] = rows
        for metric, s in rows.items():
            if metric == "correct_runs":
                continue
            print(f"{name:18} {metric:16} {s['unit']:5} {_fmt(s['median']):>10} "
                  f"{_fmt(s['q1']):>10} {_fmt(s['q3']):>10} "
                  f"{_fmt(s['spread']):>7} {_fmt(bounds.get(metric)):>6} "
                  f"{s['n']:>3}")
        print(f"{name:18} failed/attempted {failed}/{attempted}, "
              f"correct runs {rows['correct_runs']}/{len(runs)}", flush=True)

    print(f"\n{'workload':18} {'per-layer metric (traced, seed 1)':50} "
          f"{'value':>12} unit")
    for name in names:
        *before, traced = run_once(bench, name, 1, 1)
        # a run that raised prints no counts line, and fails the check
        counts = before[-1] if before else {"frame_counts": {},
                                            "scal_at_calls": None}
        report["per_layer"][name] = traced
        report["count_selfcheck"][name] = count_selfcheck(name, counts)
        for metric, m in traced["metrics"].items():
            print(f"{name:18} {metric:50} {_fmt(m['value']):>12} {m['unit']}")
    print("\ncount self-check (frame evaluations per point span that returned):")
    passed = True
    for name, c in report["count_selfcheck"].items():
        ok = c["ok"] and report["per_layer"][name]["correct"]
        passed = passed and ok
        print(f"  {name:18} {'PASS' if ok else 'FAIL'} "
              f"seen {c['frame_counts']} expected {c['expected']}"
              f" scal_at calls {c['scal_at_calls']}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
