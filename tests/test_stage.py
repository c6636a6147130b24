"""The frozen-pivot stage: the base point's frame, connection and
curvature, and each displaced-point frame and connection, are built once per
base point, memoised by the exact point.  The frame counts below pin how
much work one base point costs: the points at which the coframe is
evaluated, whether one at a time or stacked; the call counts pin how many
stacked ``frame_field`` calls carry them."""

import pathlib

import numpy as np
import pytest

import qclab.curvature
from qclab import suite
from qclab import twistor as tw
from qclab.catalog import conformal, get_chart, heisenberg, load_config
from qclab.chart import FrameJet, QCChart, frame_field, jet_points
from qclab.connection import connection_at_point
from qclab.curvature import FrozenPivotStage, scal_at
from qclab.errors import NotPositive, QPreservationFail
from qclab.tolerances import DEFAULT_TOLERANCES

POINT1 = np.array([0.31, -0.42, 0.17, 0.55, -0.23, 0.08, -0.61])
POINT2 = np.linspace(-0.5, 0.5, 11)
FIBRE = np.array([0.48, -0.6, 0.64])
EINSTEIN = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "qc_einstein.qc")


@pytest.fixture
def frame_count(monkeypatch):
    """Frames built so far: every frame evaluates the coframe once, at its
    own row of a stacked evaluation."""
    rows = []
    original = QCChart.eval_coframe

    def counting(self, u):
        rows.append(np.asarray(u).reshape(-1, self.m).shape[0])
        return original(self, u)

    monkeypatch.setattr(QCChart, "eval_coframe", counting)
    return lambda: sum(rows)


@pytest.fixture
def frame_calls(monkeypatch):
    """``frame_field`` calls the stage has made so far."""
    calls = []
    original = qclab.curvature.frame_field

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qclab.curvature, "frame_field", counting)
    return lambda: len(calls)


def test_base_point_frame_count(frame_count):
    # base connection 15; the full stencil at h and at h/2, 2 x 14 x 15; and
    # at each step six tau-stencil centres shared with it, each adding a
    # horizontal stencil of 8 x 15
    tw.base_point_data(heisenberg(1), POINT1)
    assert frame_count() == 1875


def test_n2_base_point_frame_count(frame_count):
    # as for n = 1 with 23 frames per connection: 1 + 2 x 22 + 12 x 16
    # connections
    tw.base_point_data(heisenberg(2), POINT2)
    assert frame_count() == 5451


def test_invariants_frame_count(frame_count):
    # base connection 23 and a horizontal stencil of 16 x 23
    suite.invariants_row(heisenberg(2), POINT2)
    assert frame_count() == 391


def test_base_point_frame_calls(frame_calls):
    # the free-pivot base frame, the base jet, and one call for both ends of
    # each central difference: 7 at each of h and h/2 for the full stencil
    # and 4 at each of the 12 tau-stencil ends
    tw.base_point_data(heisenberg(1), POINT1)
    assert frame_calls() == 2 + 2 * 7 + 12 * 4


def test_invariants_frame_calls(frame_calls):
    # the base frame, the base jet and the 8 horizontal central differences
    suite.invariants_row(heisenberg(2), POINT2)
    assert frame_calls() == 10


def test_rotated_pipeline_frame_count(frame_count):
    # the rotated chart's base point costs what base_point_data's does,
    # less the tau stencils along xi_2 and xi_3 at both steps:
    # 1875 - 4 x 8 x 15
    tw.lie_chi_G(heisenberg(1), POINT1, FIBRE / np.linalg.norm(FIBRE))
    assert frame_count() == 915


def test_oracle_frame_count(frame_count):
    # The oracle shares the base point's stage.  The first fibre point adds
    # the coordinate steps (14 connections), the two steps along the Reeb
    # lift and tau's horizontal stencils there: (14 + 2 + 2 x 8) x 15; a
    # second fibre point reuses the coordinate steps.
    chart = conformal(heisenberg(1), "exp(0.2*u1)")
    base = tw.base_point_data(chart, POINT1)
    for x, cost in ((FIBRE / np.linalg.norm(FIBRE), 480),
                    (tw.fibonacci_sphere(2)[1], 270)):
        before = frame_count()
        tw.normality_direct_oracle(base.stage, x, sample_pairs=2,
                                   report=tw.report_from_base(base, x))
        assert frame_count() - before == cost


def test_identity_suite_frame_count(frame_count):
    # base_point_data plus the two sphere-bundle oracles on its stage; on
    # this flat chart xi_s = 2 d/dt_s, so the h/2 steps along xi_s land on
    # six of the oracles' coordinate steps: 1875 + 480 - 6 x 15
    suite.identity_suite(heisenberg(1), POINT1, FIBRE / np.linalg.norm(FIBRE),
                         cr_pairs=1)
    assert frame_count() == 2085


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
        fd = stage.steps.fd
        displaced = frame_field(chart, jet_points(u, fd),
                                pivot_order=stage.pivots)
        assert np.array_equal(
            stage.connection(u).stacked_matrices(),
            connection_at_point(
                FrameJet(chart, frozen, displaced, fd)).stacked_matrices())


@pytest.mark.parametrize("chart", _benchmark_charts(), ids=lambda c: c.name)
def test_stacked_connections_match_one_by_one(chart):
    # both ends of a central difference in one stacked call give the
    # connections that building them one at a time gives, bit for bit
    u = chart.sample_points(1, seed=4)[0]
    v = frame_field(chart, u).xi[:, 0]
    ends = [u + 2e-3 * v, u - 2e-3 * v]
    stacked = FrozenPivotStage(chart, u).connections(ends)
    single = FrozenPivotStage(chart, u)
    for conn, p in zip(stacked, ends):
        alone = single.connection(p)
        assert np.array_equal(conn.stacked_matrices(),
                              alone.stacked_matrices())
        assert conn.diagnostics == alone.diagnostics


def test_stacked_connections_raise_what_one_by_one_raises_first():
    # the first point's frames are sound but its connection fails; the
    # second point's frames fail (negative factor).  One by one, the first
    # point's failure comes first, whichever check the stack meets first.
    chart = conformal(heisenberg(1), "u1 + 1.5")
    tol = DEFAULT_TOLERANCES.updated(connection=0.0)
    u = np.array([0.2, 0.1, 0.2, -0.1, 0.3, 0.0, 0.1])
    low = u.copy()
    low[0] = -1.6
    with pytest.raises(QPreservationFail) as info:
        FrozenPivotStage(chart, u, tol=tol).connections([u, low])
    assert info.value.point == list(u)
    with pytest.raises(NotPositive) as info:
        FrozenPivotStage(chart, u, tol=tol).connections([low, u])
    assert info.value.point == list(low)


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
    h = stage.steps.curv
    assert stage.scal(p, h) == scal_at(fresh, p, h)
    assert stage.scal(p, h / 2) != stage.scal(p, h)


def test_einstein_chart_is_normal_at_the_stage_point():
    # qc-Einstein: tau = 4, T0 = 0.  The extrapolated curvature puts the
    # verdict on the normal side (single-step, the O(h^2) truncation left
    # a residual near 8e-4).
    chart = load_config(str(EINSTEIN), validate=False)[0]
    base = tw.base_point_data(chart, POINT1)
    reports = [tw.report_from_base(base, x) for x in tw.fibonacci_sphere(8)]
    assert [r.verdict for r in reports] == ["normal"] * 8
    assert max(r.normality_residual for r in reports) <= 1e-5
