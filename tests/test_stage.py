"""The frozen-pivot stage: each displaced-point frame and connection is
built once per base point, memoised by the exact point.  The frame counts
below pin how much work one base point costs."""

import numpy as np
import pytest

from qclab import suite
from qclab import twistor as tw
from qclab.catalog import conformal, heisenberg
from qclab.chart import QCChart
from qclab.connection import connection_at_point
from qclab.curvature import FrozenPivotStage, scal_at

POINT1 = np.array([0.31, -0.42, 0.17, 0.55, -0.23, 0.08, -0.61])
POINT2 = np.linspace(-0.5, 0.5, 11)


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


def test_cache_is_keyed_by_the_exact_point():
    chart = conformal(heisenberg(1), "exp(0.2*u1)")
    pivots = connection_at_point(chart, POINT1).frame.pivot_order
    stage = FrozenPivotStage(chart, pivots)
    p = POINT1 + 1e-3
    conn = stage.connection(p)
    assert stage.connection(p.copy()) is conn
    assert stage.frame(p) is conn.frame
    assert stage.connection(np.nextafter(p, 2.0)) is not conn

    fresh = FrozenPivotStage(chart, pivots)
    assert np.array_equal(fresh.connection(p).stacked_matrices(),
                          conn.stacked_matrices())
    assert stage.scal(p) == scal_at(fresh, p)
