"""perfbench/tracer.py patches qclab's layer functions by module-global
name.  A layer it cannot find, or one reached through a reference it cannot
patch, would break or silently skew the traced benchmark run."""

import importlib.util
import pathlib

import numpy as np

import qclab.cli  # noqa: F401  (the tracer patches every loaded qclab module)
import qclab.curvature
from qclab import twistor as tw
from qclab.catalog import heisenberg

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
POINT = np.array([0.31, -0.42, 0.17, 0.55, -0.23, 0.08, -0.61])


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer_and_restores_it():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    original = qclab.curvature.frame_field
    try:
        tracer.install()
        tw.base_point_data(heisenberg(1), POINT)
    finally:
        tracer.uninstall()
    assert qclab.curvature.frame_field is original

    names = [span[0] for span in tracer.spans]
    for layer in ("exprlang.eval_coframe", "exprlang.eval_dcoframe",
                  "chart.recover_structure", "chart.reeb_solve",
                  "chart.frame_field", "chart.FrameJet",
                  "connection.connection_at_point",
                  "connection.torsion_tensors",
                  "curvature.curvature_at_point", "curvature.scal_at",
                  "twistor.base_point_data"):
        assert layer in names
    # six tau-stencil ends at each of the steps h and h/2
    assert names.count("curvature.scal_at") == 12
    # frame_field calls, not frames (1875 of them): the free-pivot base
    # frame, the base jet, and one stacked call for both ends of each of
    # the 62 central differences (7 at each of h and h/2 for the full
    # stencil, 4 at each of the 12 tau-stencil ends)
    assert tracer_mod.frames_per_point_span(tracer.spans) == {
        "twistor.base_point_data": [64]}
