import pathlib
import pickle

import numpy as np
import pytest

from qclab import exprlang
from qclab.catalog import conformal, get_chart, heisenberg, load_config
from qclab.chart import (QCChart, frame_field, lie_bracket,
                         recover_structure, reeb_solve)
from qclab.curvature import FrozenPivotStage
from qclab.errors import (BiquardConditionFail, ChartError, DegenerateCoframe,
                          EvalDomainError, NotPositive)
from qclab.tolerances import Steps

EINSTEIN = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "qc_einstein.qc")


@pytest.fixture(scope="module")
def h1():
    return heisenberg(1)


@pytest.fixture(scope="module")
def h1_deformed(h1):
    return conformal(h1, "exp(0.2*u1)")


def test_coframe_at_origin(h1):
    C = h1.eval_coframe(np.zeros(7))
    expected = np.zeros((3, 7))
    for s in range(3):
        expected[s, 4 + s] = 0.5
    assert np.abs(C - expected).max() == 0.0


def test_coframe_deterministic(h1):
    u = np.array([0.3, -0.2, 0.9, 0.1, -0.5, 0.7, 0.2])
    a = h1.eval_coframe(u)
    b = h1.eval_coframe(u)
    assert (a == b).all()


def test_conformal_coframe_at_unit_factor_point(h1, h1_deformed):
    # the factor exp(0.2 u1) is 1 where u1 = 0
    u = np.array([0.0, 0.4, -0.7, 0.2, 0.1, -0.3, 0.8])
    assert np.abs(h1_deformed.eval_coframe(u) - h1.eval_coframe(u)).max() <= 1e-15


def test_dcoframe_constant_for_flat_chart(h1):
    rng = np.random.default_rng(0)
    D1 = h1.eval_dcoframe(rng.uniform(-1, 1, 7))
    D2 = h1.eval_dcoframe(rng.uniform(-1, 1, 7))
    assert np.abs(D1 - D2).max() <= 1e-15
    assert np.abs(D1 + D1.transpose(0, 2, 1)).max() == 0.0


def test_dcoframe_of_constant_coefficients_is_zero():
    rows = tuple(
        tuple(exprlang.parse(text, 7) for text in row)
        for row in (["1", "0", "0", "0", "1/2", "0", "0"],
                    ["0", "1", "0", "0", "0", "1/2", "0"],
                    ["0", "0", "1", "0", "0", "0", "1/2"]))
    chart = QCChart(n=1, coeffs=rows)
    assert np.abs(chart.eval_dcoframe(np.zeros(7))).max() == 0.0


def test_dcoframe_product_rule(h1, h1_deformed):
    # d(mu eta) = d mu wedge eta + mu d eta, assembled independently of the
    # direct forward-mode differentiation of the product coefficients
    mu = exprlang.parse("exp(0.2*u1)", 7)
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, 7)
    val, dmu = exprlang.value_and_grad(mu, u)
    C = h1.eval_coframe(u)
    D = h1.eval_dcoframe(u)
    expected = np.empty_like(D)
    for s in range(3):
        wedge = np.outer(dmu, C[s]) - np.outer(C[s], dmu)
        expected[s] = wedge + val * D[s]
    assert np.abs(h1_deformed.eval_dcoframe(u) - expected).max() <= 1e-12


def test_recover_structure_flat(h1):
    # the left-invariant frame X_a = d/dx_a - 2 sum_s (J_s x)_a xi_s is
    # orthonormal for the recovered metric, and the triple acts on it by the
    # frozen constant matrices
    from qclab.algebra import standard_triple
    J = standard_triple(1)
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = rng.uniform(-1, 1, 7)
        st = recover_structure(h1, u)
        assert st.residual <= 1e-12
        x = u[:4]
        fields = np.zeros((7, 4))
        for a in range(4):
            fields[a, a] = 1.0
            for s in range(3):
                fields[4 + s, a] = -2.0 * float(J[s] @ x @ np.eye(4)[:, a])
        for a in range(4):
            for b in range(4):
                expected = 1.0 if a == b else 0.0
                assert st.h_metric(fields[:, a], fields[:, b]) == pytest.approx(
                    expected, abs=1e-12)
        # I_s X_a = sum_c (J_s)_{ca} X_c
        ycoords = st.hbasis.T @ fields
        for s in range(3):
            image = st.imatrices[s] @ ycoords
            expected = ycoords @ J[s]
            assert np.abs(image - expected).max() <= 1e-11


def test_recover_structure_degenerate_coframe(h1):
    coeffs = (h1.coeffs[0], h1.coeffs[0], h1.coeffs[2])
    bad = QCChart(n=1, coeffs=coeffs)
    with pytest.raises(DegenerateCoframe):
        recover_structure(bad, np.zeros(7))


def test_recover_structure_conformal_scaling(h1, h1_deformed):
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, 7)
    st = recover_structure(h1, u)
    std = recover_structure(h1_deformed, u)
    mu = float(np.exp(0.2 * u[0]))
    fr = frame_field(h1, u)
    for a in range(4):
        v = fr.eH[:, a]
        assert std.h_metric(v, v) == pytest.approx(mu * st.h_metric(v, v),
                                                   rel=1e-10)


def test_recovery_consistent_across_structure_indices(h1_deformed):
    # the metric can be recovered through any of the three two-forms
    rng = np.random.default_rng(4)
    st = recover_structure(h1_deformed, rng.uniform(-1, 1, 7))
    for s in range(3):
        G_s = -st.imatrices[s].T @ st.omega[s]
        assert np.abs(0.5 * (G_s + G_s.T) - st.gram).max() <= 1e-10


def test_reeb_solve_flat(h1):
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, 7)
    st = recover_structure(h1, u)
    rb = reeb_solve(h1, u, st)
    assert rb.residual <= 1e-12
    expected = np.zeros((7, 3))
    expected[4:, :] = 2.0 * np.eye(3)
    assert np.abs(rb.xi - expected).max() <= 1e-12


def test_reeb_solve_n2():
    ch = heisenberg(2)
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, 11)
    st = recover_structure(ch, u)
    rb = reeb_solve(ch, u, st)
    assert rb.residual <= 1e-10
    assert rb.min_singular >= 1e-6


def perturbed_chart():
    """Flat chart with one coefficient of the first coframe row perturbed by
    0.1 u5^2; at points with vanishing x-coordinates the recovery succeeds
    exactly while the shared-vertical compatibility system is inconsistent."""
    base = heisenberg(1)
    rows = [list(row) for row in base.coeffs]
    rows[0][0] = exprlang.Add(rows[0][0],
                              exprlang.parse("0.1*u5^2", 7))
    return QCChart(n=1, coeffs=tuple(tuple(r) for r in rows))


def test_reeb_solve_detects_incompatible_coframe():
    bad = perturbed_chart()
    u = np.array([0.0, 0.0, 0.0, 0.0, 0.8, 0.3, -0.4])
    st = recover_structure(bad, u)
    with pytest.raises(BiquardConditionFail) as info:
        reeb_solve(bad, u, st)
    assert info.value.residual > 1e-3


def test_frame_field_origin(h1):
    fr = frame_field(h1, np.zeros(7))
    assert np.abs(fr.eH[:4] - np.eye(4)).max() <= 1e-12
    assert np.abs(fr.eH[4:]).max() <= 1e-12
    res = fr.validate()
    assert max(res.values()) <= 1e-12


def test_frame_field_smoothness(h1):
    rng = np.random.default_rng(7)
    u = rng.uniform(-0.5, 0.5, 7)
    fr = frame_field(h1, u)
    delta = 1e-3 * rng.standard_normal(7)
    delta *= 1e-3 / np.linalg.norm(delta)
    fr2 = frame_field(h1, u + delta, pivot_order=fr.pivot_order)
    assert np.abs(fr2.eH - fr.eH).max() <= 50 * 1e-3


@pytest.mark.parametrize("factory", [
    lambda: heisenberg(1),
    lambda: conformal(heisenberg(1), "exp(0.2*u1)"),
])
def test_frame_invariants_random_points(factory):
    chart = factory()
    for u in chart.sample_points(8, seed=42):
        fr = frame_field(chart, u)
        _, bad = fr.check()
        assert not bad


def test_lie_bracket_constant_fields(h1):
    u = np.zeros(7)
    const = lambda v: (lambda _u: v)
    x = const(np.array([1.0, 0, 0, 0, 0, 0, 0]))
    y = const(np.array([0, 0, 1.0, 0, 0, 0, 0]))
    assert np.abs(lie_bracket(h1, x, y, u)).max() <= 1e-12


def test_lie_bracket_coordinate_example(h1):
    # [d/du1, u1 d/du2] = d/du2
    x = lambda u: np.array([1.0, 0, 0, 0, 0, 0, 0])
    y = lambda u: np.array([0.0, u[0], 0, 0, 0, 0, 0])
    out = lie_bracket(h1, x, y, np.zeros(7))
    assert np.abs(out - [0, 1.0, 0, 0, 0, 0, 0]).max() <= 1e-9


def test_cartan_formula_links_brackets_to_differential(h1_deformed):
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, 7)
    jet = FrozenPivotStage(h1_deformed, u).connection(u).jet
    fr = jet.frame
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            br = jet.bracket(a, b)
            lhs = fr.coframe @ br
            rhs = -np.array([fr.eH[:, a] @ fr.dcoframe[s] @ fr.eH[:, b]
                             for s in range(3)])
            worst = max(worst, np.abs(lhs - rhs).max())
    assert worst <= 1e-7


def _benchmark_charts():
    return [get_chart("heisenberg-1"), get_chart("heisenberg-2"),
            get_chart("heisenberg-1-conformal"),
            load_config(str(EINSTEIN), validate=False)[0]]


@pytest.mark.parametrize("chart", _benchmark_charts(), ids=lambda c: c.name)
def test_stacked_frames_match_single_point_frames(chart):
    rng = np.random.default_rng(12)
    u = chart.sample_points(1, seed=12)[0]
    pivots = frame_field(chart, u).pivot_order
    stack = u + 1e-3 * rng.standard_normal((6, chart.m))
    frames = frame_field(chart, stack, pivot_order=pivots)
    assert len(frames) == len(stack)
    for row, stacked in zip(stack, frames):
        single = frame_field(chart, row, pivot_order=pivots)
        assert np.array_equal(stacked.point, row)
        for a, b in ((stacked.eH, single.eH), (stacked.xi, single.xi),
                     (np.array(list(stacked.I)), np.array(list(single.I))),
                     (stacked.g_coord, single.g_coord)):
            assert np.abs(a - b).max() <= 1e-12


def test_stacked_frames_own_their_arrays():
    # a kept frame must not pin the whole stack it was built in: each array
    # owns its memory, or is a view of a block holding only that frame's
    # triple
    chart = get_chart("heisenberg-1-conformal")
    stack = chart.sample_points(6, seed=3)
    for frame in frame_field(chart, stack):
        for a in (frame.point, frame.eH, frame.xi, frame.coframe,
                  frame.dcoframe, frame.g_coord, *frame.I):
            owner = a if a.base is None else a.base
            assert owner.base is None
            assert owner.nbytes <= 3 * a.nbytes


def _log_factor_chart():
    # log(u1 + 1.5) is negative for u1 < -0.5 and undefined below -1.5
    mu = exprlang.parse("log(u1 + 1.5)", 7)
    return QCChart(n=1, coeffs=tuple(tuple(exprlang.Mul(mu, c) for c in row)
                                     for row in heisenberg(1).coeffs))


def test_stacked_evaluation_names_the_failing_row():
    chart = _log_factor_chart()
    stack = np.zeros((4, 7))
    stack[:, 0] = [0.0, 0.3, -2.0, -3.0]
    for evaluate in (chart.eval_coframe, chart.eval_dcoframe):
        with pytest.raises(EvalDomainError) as info:
            evaluate(stack)
        assert "log of a non-positive value" in str(info.value)
        assert info.value.point == [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_stacked_frames_raise_what_row_order_raises_first():
    # row 2 leaves the domain, but row 1 (negative factor, so a negative
    # definite metric) fails first in row order
    chart = _log_factor_chart()
    stack = np.zeros((3, 7))
    stack[:, 0] = [0.0, -1.0, -2.0]
    with pytest.raises(NotPositive) as info:
        frame_field(chart, stack)
    assert info.value.point == list(stack[1])


def test_jet_failure_names_the_displaced_point():
    # the factor u1 + 1.5 is positive at the base point and negative one
    # step down u1
    chart = conformal(heisenberg(1), "u1 + 1.5")
    u = np.array([-1.495, 0.1, 0.2, -0.1, 0.3, 0.0, 0.1])
    stage = FrozenPivotStage(chart, u, Steps(fd=0.01))
    with pytest.raises(NotPositive) as info:
        stage.connection(u)
    expected = u.copy()
    expected[0] -= 0.01
    assert info.value.point == list(expected)


@pytest.mark.parametrize("chart", _benchmark_charts(), ids=lambda c: c.name)
def test_chart_survives_pickling(chart):
    clone = pickle.loads(pickle.dumps(chart))
    points = chart.sample_points(3, seed=5)
    assert np.array_equal(clone.eval_coframe(points),
                          chart.eval_coframe(points))
    assert np.array_equal(clone.eval_dcoframe(points),
                          chart.eval_dcoframe(points))
    assert np.array_equal(frame_field(clone, points[0]).eH,
                          frame_field(chart, points[0]).eH)


def test_tape_shares_repeated_subexpressions():
    # the conformal factor is compiled once, not once per coefficient, and
    # each distinct coefficient is multiplied by it once
    base = heisenberg(1)
    mu = exprlang.parse("exp(0.2*u1)", 7)
    chart = conformal(base, mu)
    unscaled = exprlang.Tape([c for row in base.coeffs for c in row] + [mu], 7)
    assert len(chart.tape.code) == \
        len(unscaled.code) + len(set(base.tape.outputs))


def test_error_point_is_plain_floats():
    exc = ChartError("x", point=np.array([0.5, -1.25]))
    assert "at point [0.5, -1.25]" in str(exc)
    assert exc.point == [0.5, -1.25]
    assert all(type(c) is float for c in exc.point)
