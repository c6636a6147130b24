"""In-memory span tracer that wraps qclab's layer functions from outside.

Nothing inside ``src/`` is changed: ``Tracer.install`` replaces every
binding of each traced function in every loaded ``qclab`` module (modules
bind ``frame_field``, ``FrameJet``, ``connection_at_point`` and ``scal_at``
with ``from .x import ...``, so patching only the defining module would miss
most calls), and ``uninstall`` restores them.  Methods (``eval_coframe``,
``eval_dcoframe``, ``FrameJet.__init__``) are patched on their class.

A span is ``[name, parent_index, start, end, raised]``; spans stay in memory until
the run ends.  Self time is a span's duration minus the time its child spans
cover.  Tracing is single-threaded and single-process: the traced run uses
``--threads 1``.
"""

import statistics
import sys
import time
from functools import wraps

import numpy as np

# span name -> (module, attribute, class attribute or None)
TARGETS = {
    "exprlang.eval_coframe": ("qclab.chart", "QCChart", "eval_coframe"),
    "exprlang.eval_dcoframe": ("qclab.chart", "QCChart", "eval_dcoframe"),
    "chart.recover_structure": ("qclab.chart", "recover_structure", None),
    "chart.reeb_solve": ("qclab.chart", "reeb_solve", None),
    "chart.frame_field": ("qclab.chart", "frame_field", None),
    "chart.FrameJet": ("qclab.chart", "FrameJet", "__init__"),
    "connection.connection_at_point": ("qclab.connection", "connection_at_point", None),
    "connection.torsion_tensors": ("qclab.connection", "torsion_tensors", None),
    "curvature.curvature_at_point": ("qclab.curvature", "curvature_at_point", None),
    "curvature.scal_at": ("qclab.curvature", "scal_at", None),
    "twistor.base_point_data": ("qclab.twistor", "base_point_data", None),
    "twistor.report_from_base": ("qclab.twistor", "report_from_base", None),
    "twistor.normality_direct_oracle": ("qclab.twistor", "normality_direct_oracle", None),
    "suite.invariants_row": ("qclab.suite", "invariants_row", None),
    "catalog.get_chart": ("qclab.catalog", "get_chart", None),
    "catalog.load_config": ("qclab.catalog", "load_config", None),
    "cli.main": ("qclab.cli", "main", None),
}

CHART_BUILD = ("catalog.get_chart", "catalog.load_config")
# Spans that do the work of one base point (or one fibre row); time in
# cli.main outside them is CLI overhead: parsing, chart resolution, rendering.
POINT_WORK = ("twistor.base_point_data", "twistor.report_from_base",
              "twistor.normality_direct_oracle", "suite.invariants_row")


# Spans whose frame evaluations are one base point's (or one oracle call's).
POINT_LEVEL = ("twistor.base_point_data", "suite.invariants_row",
               "twistor.normality_direct_oracle")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self):
        """Patch every binding of every target; raise if one is missed."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "qclab" or key.startswith("qclab.")]
        originals = {}
        for name, (modname, attr, member) in TARGETS.items():
            owner = getattr(sys.modules[modname], attr)
            if member is not None:
                original = vars(owner)[member]
                originals[name] = original
                self._patch(owner, member, self._wrap(name, original))
                continue
            originals[name] = owner
            wrapped = self._wrap(name, owner)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, key, wrapped)
        missed = [f"{mod.__name__}.{key}" for mod in modules
                  for key, value in vars(mod).items()
                  if any(value is orig for orig in originals.values())]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left bindings unpatched: {missed}")

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _analyse(spans):
    """Per span: duration, self time, whether it lies under chart
    resolution, whether it is the outermost span of its name, and the index
    of its outermost (root) span."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    in_build = [False] * n
    outermost = [True] * n
    root = list(range(n))
    names_above = [None] * n
    for i, (name, parent, *_) in enumerate(spans):
        above = frozenset() if parent < 0 else names_above[parent]
        if parent >= 0:
            child[parent] += dur[i]
            in_build[i] = in_build[parent] or spans[parent][0] in CHART_BUILD
            root[i] = root[parent]
        outermost[i] = name not in above
        names_above[i] = above | {name}
    selfs = [d - c for d, c in zip(dur, child)]
    return dur, selfs, in_build, outermost, root


def layer_metrics(spans, points, rows):
    """Per-layer metrics of one traced pass over ``points`` completed base
    points producing ``rows`` report rows.  Counts and times exclude work
    done inside chart resolution (``load_config`` validates the chart at its
    own sample points), except ``catalog.chart_build_s`` itself, and every
    span of a ``cli.main`` call in which a point-level span raised: such a
    call ends in a qclab error and its points are not completed."""
    dur, selfs, in_build, outermost, root = _analyse(spans)
    failed = {root[i] for i, s in enumerate(spans)
              if s[0] in POINT_LEVEL and s[4]}
    kept = [root[i] not in failed for i in range(len(spans))]
    calls, self_s, incl_s, durations = {}, {}, {}, {}
    for i, (name, *_) in enumerate(spans):
        if in_build[i] or not kept[i]:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if outermost[i]:
            incl_s[name] = incl_s.get(name, 0.0) + dur[i]
            durations.setdefault(name, []).append(dur[i])
    oracle_frames = frames_per_point_span(spans).get(
        "twistor.normality_direct_oracle", [])

    build = [dur[i] for i, s in enumerate(spans) if s[0] in CHART_BUILD
             and outermost[i] and not in_build[i] and kept[i]]
    main_total = incl_s.get("cli.main", 0.0)
    point_work = sum(incl_s.get(name, 0.0) for name in POINT_WORK)
    main_calls = calls.get("cli.main", 0)
    oracle_calls = calls.get("twistor.normality_direct_oracle", 0)

    def per_point(table, name):
        return table.get(name, 0) / points

    base_durs = durations.get("twistor.base_point_data", [])
    metrics = {
        "chart.frame_field.calls_per_point": per_point(calls, "chart.frame_field"),
        "chart.FrameJet.calls_per_point": per_point(calls, "chart.FrameJet"),
        "connection.connection_at_point.calls_per_point":
            per_point(calls, "connection.connection_at_point"),
        "curvature.curvature_at_point.calls_per_point":
            per_point(calls, "curvature.curvature_at_point"),
        "curvature.scal_at.calls_per_point": per_point(calls, "curvature.scal_at"),
        "curvature.scal_at.incl_s_per_point": per_point(incl_s, "curvature.scal_at"),
        "curvature.scal_at.share":
            incl_s.get("curvature.scal_at", 0.0) / main_total if main_total else 0.0,
        "exprlang.eval_coframe.calls_per_point":
            per_point(calls, "exprlang.eval_coframe"),
        "exprlang.eval_dcoframe.calls_per_point":
            per_point(calls, "exprlang.eval_dcoframe"),
        "exprlang.self_s_per_point": (self_s.get("exprlang.eval_coframe", 0.0)
                                      + self_s.get("exprlang.eval_dcoframe", 0.0))
                                     / points,
        "catalog.chart_build_s": statistics.median(build) if build else 0.0,
    }
    for name in ("chart.frame_field", "chart.recover_structure", "chart.reeb_solve",
                 "chart.FrameJet", "connection.connection_at_point",
                 "connection.torsion_tensors", "curvature.curvature_at_point"):
        metrics[f"{name}.self_s_per_point"] = per_point(self_s, name)
    metrics.update({
        "twistor.base_point_data.incl_s_per_point":
            per_point(incl_s, "twistor.base_point_data"),
        "twistor.base_point_data.p90_s":
            float(np.percentile(base_durs, 90)) if base_durs else 0.0,
        "twistor.report_from_base.self_s_per_row":
            self_s.get("twistor.report_from_base", 0.0) / rows,
        "twistor.normality_direct_oracle.incl_s_per_call":
            incl_s.get("twistor.normality_direct_oracle", 0.0) / oracle_calls
            if oracle_calls else 0.0,
        "twistor.normality_direct_oracle.frames_per_call":
            statistics.fmean(oracle_frames) if oracle_frames else 0.0,
        "suite.invariants_row.incl_s_per_point":
            per_point(incl_s, "suite.invariants_row"),
        "cli.main.overhead_s":
            (main_total - point_work) / main_calls if main_calls else 0.0,
    })
    return metrics


def frames_per_point_span(spans):
    """``{point-level span name: [frame_field calls under each one that
    returned]}``: exact per-point counts, unaffected by points that raised."""
    counts = {}
    owner = [None] * len(spans)
    for i, (name, parent, *_) in enumerate(spans):
        owner[i] = i if name in POINT_LEVEL else owner[parent] if parent >= 0 else None
        if name == "chart.frame_field" and owner[i] is not None:
            counts[owner[i]] = counts.get(owner[i], 0) + 1
    result = {}
    for i, span in enumerate(spans):
        if span[0] in POINT_LEVEL and not span[4]:
            result.setdefault(span[0], []).append(counts.get(i, 0))
    return result

