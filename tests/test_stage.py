"""The frozen-pivot stage: the base point's frame, connection and
curvature, and each displaced-point frame and connection, are built once per
base point, memoised by the exact point.  The frame counts below pin how
much work one base point costs."""

import pathlib

import numpy as np
import pytest

from qclab import suite
from qclab import twistor as tw
from qclab.catalog import conformal, get_chart, heisenberg, load_config
from qclab.chart import FrameJet, QCChart, frame_field
from qclab.connection import connection_at_point
from qclab.curvature import FrozenPivotStage, scal_at

POINT1 = np.array([0.31, -0.42, 0.17, 0.55, -0.23, 0.08, -0.61])
POINT2 = np.linspace(-0.5, 0.5, 11)
FIBRE = np.array([0.48, -0.6, 0.64])
EINSTEIN = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "qc_einstein.qc")


@pytest.fixture
def frame_count(monkeypatch):
    """Frames built so far: every frame evaluates the coframe once."""
    calls = []
    original = QCChart.eval_coframe

    def counting(self, u):
        calls.append(1)
        return original(self, u)

    monkeypatch.setattr(QCChart, "eval_coframe", counting)
    return lambda: len(calls)


def test_base_point_frame_count(frame_count):
    # base connection 15, full stencil 14 x 15, and six tau-stencil centres
    # shared with it, each adding a horizontal stencil of 8 x 15
    tw.base_point_data(heisenberg(1), POINT1)
    assert frame_count() == 945


def test_invariants_frame_count(frame_count):
    # base connection 23 and a horizontal stencil of 16 x 23
    suite.invariants_row(heisenberg(2), POINT2)
    assert frame_count() == 391


def test_rotated_pipeline_frame_count(frame_count):
    # the rotated chart's base point costs what base_point_data's does,
    # less the tau stencils along xi_2 and xi_3: 945 - 2 x 8 x 15
    tw.lie_chi_G(heisenberg(1), POINT1, FIBRE / np.linalg.norm(FIBRE))
    assert frame_count() == 465


def test_oracle_frame_count(frame_count):
    x = FIBRE / np.linalg.norm(FIBRE)
    chart = heisenberg(1)
    report = tw.lie_chi_G(chart, POINT1, x)
    before = frame_count()
    tw.normality_direct_oracle(chart, POINT1, x, sample_pairs=2,
                               report=report)
    assert frame_count() - before == 615


def test_identity_suite_frame_count(frame_count):
    # base_point_data plus the two sphere-bundle oracles
    suite.identity_suite(heisenberg(1), POINT1, FIBRE / np.linalg.norm(FIBRE),
                         cr_pairs=1)
    assert frame_count() == 1725


def _benchmark_charts():
    return [get_chart("heisenberg-1"), get_chart("heisenberg-2"),
            get_chart("heisenberg-1-conformal"),
            load_config(str(EINSTEIN), validate=False)[0]]


def _frame_arrays(frame):
    return [frame.eH, frame.xi, *frame.I, frame.coframe, frame.dcoframe,
            frame.g_coord, frame.reeb_residual]


@pytest.mark.parametrize("chart", _benchmark_charts(), ids=lambda c: c.name)
def test_stage_seeds_the_free_pivot_frame(chart):
    # The stage's base frame is the free-pivot one, and rebuilding it with
    # its own pivot order frozen reproduces it, and its connection, bit for
    # bit; so serving the base point from the frozen-pivot cache changes no
    # output.
    for u in chart.sample_points(3, seed=11):
        free = frame_field(chart, u)
        stage = FrozenPivotStage(chart, u)
        frozen = frame_field(chart, u, pivot_order=free.pivot_order)
        assert stage.pivots == free.pivot_order == frozen.pivot_order
        for built in (stage.frame(u), frozen):
            for a, b in zip(_frame_arrays(built), _frame_arrays(free)):
                assert np.array_equal(a, b)
        assert np.array_equal(
            stage.connection(u).stacked_matrices(),
            connection_at_point(FrameJet(chart, frozen)).stacked_matrices())


def test_cache_is_keyed_by_the_exact_point():
    chart = conformal(heisenberg(1), "exp(0.2*u1)")
    stage = FrozenPivotStage(chart, POINT1)
    p = POINT1 + 1e-3
    conn = stage.connection(p)
    assert stage.connection(p.copy()) is conn
    assert stage.frame(p) is conn.frame
    assert stage.connection(np.nextafter(p, 2.0)) is not conn

    fresh = FrozenPivotStage(chart, POINT1)
    assert np.array_equal(fresh.connection(p).stacked_matrices(),
                          conn.stacked_matrices())
    assert stage.scal(p) == scal_at(fresh, p)
