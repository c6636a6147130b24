import numpy as np
import pytest

from qclab import twistor as tw
from qclab.catalog import conformal, heisenberg
from qclab.chart import frame_field
from qclab.curvature import FrozenPivotStage

RNG = np.random.default_rng(41)
POINT = RNG.uniform(-1, 1, 7)
FIBRE = np.array([0.48, -0.6, 0.64])
FIBRE = FIBRE / np.linalg.norm(FIBRE)


@pytest.fixture(scope="module")
def h1():
    return heisenberg(1)


@pytest.fixture(scope="module")
def deformed():
    return conformal(heisenberg(1), "exp(0.2*u1)")


@pytest.fixture(scope="module")
def flat_ctx(h1):
    return tw.twistor_context(h1, POINT, FIBRE)


@pytest.fixture(scope="module")
def deformed_ctx(deformed):
    return tw.twistor_context(deformed, POINT, FIBRE)


@pytest.fixture(scope="module")
def deformed_report(deformed):
    return tw.lie_chi_G(deformed, POINT, FIBRE)


@pytest.fixture(scope="module")
def deformed_base(deformed):
    return tw.base_point_data(deformed, POINT)


def random_tangent(rng, x, fourn=4):
    return tw.TwistorTangent(rng.standard_normal(fourn),
                             rng.standard_normal(3),
                             np.cross(x, rng.standard_normal(3)))


# --- gauge rotation ----------------------------------------------------------

def test_rotation_identity_at_first_axis():
    assert np.abs(tw.rotation_from_x([1.0, 0, 0]) - np.eye(3)).max() == 0.0


def test_rotation_antipode_uses_fixed_half_turn():
    R = tw.rotation_from_x([-1.0, 0, 0])
    assert np.abs(R - np.diag([-1.0, -1.0, 1.0])).max() == 0.0


def test_gauge_rotate_second_axis(h1):
    fr = frame_field(h1, POINT)
    rotated = tw.gauge_rotate(fr, [0.0, 1.0, 0.0])
    assert np.abs(rotated.I[0] - fr.I[1]).max() <= 1e-12
    assert rotated.I.max_relation_residual() <= 1e-12


def test_gauge_rotate_preserves_invariants(h1):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    fr = frame_field(h1, POINT)
    rotated = tw.gauge_rotate(fr, x)
    assert np.abs(rotated.I.combine([1, 0, 0]) - fr.I.combine(x)).max() <= 1e-12
    assert rotated.reeb_residual == fr.reeb_residual
    res = rotated.validate()
    assert max(res.values()) <= 1e-9


# --- pointwise contact-metric structure --------------------------------------

def test_eta_on_reeb_lift(flat_ctx):
    assert tw.eta_Z(flat_ctx, flat_ctx.chi()) == pytest.approx(1.0)


def test_eta_vanishes_on_distribution(flat_ctx):
    t = tw.TwistorTangent(np.ones(4), np.zeros(3), np.zeros(3))
    assert tw.eta_Z(flat_ctx, t) == 0.0
    vert = tw.TwistorTangent(np.zeros(4), np.zeros(3),
                             np.cross(FIBRE, [1.0, 0, 0]))
    assert tw.eta_Z(flat_ctx, vert) == 0.0


def test_phi_kills_reeb_lift(flat_ctx):
    image = tw.phi(flat_ctx, flat_ctx.chi())
    assert np.abs(image.baseH).max() == 0.0
    assert np.abs(image.baseV).max() <= 1e-15
    assert np.abs(image.vert).max() == 0.0


def test_phi_square_identity(flat_ctx):
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = random_tangent(rng, FIBRE)
        p2 = tw.phi(flat_ctx, tw.phi(flat_ctx, t))
        eta = tw.eta_Z(flat_ctx, t)
        assert np.abs(p2.baseH + t.baseH).max() <= 1e-12
        assert np.abs(p2.baseV + t.baseV - eta * FIBRE).max() <= 1e-12
        assert np.abs(p2.vert + t.vert).max() <= 1e-12


def test_phi_vertical_action_is_cross_product():
    ctx_kwargs = dict(u=POINT, x=np.array([1.0, 0.0, 0.0]))
    ctx = tw.twistor_context(heisenberg(1), **ctx_kwargs)
    t = tw.TwistorTangent(np.zeros(4), np.zeros(3), np.array([0.0, 1.0, 0.0]))
    image = tw.phi(ctx, t)
    assert np.abs(image.vert - [0.0, 0.0, 1.0]).max() == 0.0


def test_metric_normalizes_reeb_lift(flat_ctx):
    assert tw.metric_G(flat_ctx, flat_ctx.chi(), flat_ctx.chi()) \
        == pytest.approx(1.0)


def test_metric_orthogonal_to_reeb_on_distribution(deformed_ctx):
    # G(A, chi) vanishes exactly on the contact distribution
    rng = np.random.default_rng(3)
    chi = deformed_ctx.chi()
    for _ in range(10):
        t = random_tangent(rng, FIBRE)
        t.baseV = t.baseV - (FIBRE @ t.baseV) * FIBRE  # project into D
        assert abs(tw.metric_G(deformed_ctx, t, chi)) <= 1e-13


def test_metric_matches_definition(deformed_ctx):
    rng = np.random.default_rng(4)
    for _ in range(10):
        t1 = random_tangent(rng, FIBRE)
        t2 = random_tangent(rng, FIBRE)
        assert tw.metric_G(deformed_ctx, t1, t2) == pytest.approx(
            tw.metric_G_from_definition(deformed_ctx, t1, t2), abs=1e-8)


def test_metric_compatibilities(deformed_ctx):
    rng = np.random.default_rng(5)
    for _ in range(10):
        t1 = random_tangent(rng, FIBRE)
        t2 = random_tangent(rng, FIBRE)
        g12 = tw.metric_G(deformed_ctx, t1, t2)
        lhs = tw.metric_G(deformed_ctx, tw.phi(deformed_ctx, t1),
                          tw.phi(deformed_ctx, t2))
        assert abs(lhs - g12 + tw.eta_Z(deformed_ctx, t1)
                   * tw.eta_Z(deformed_ctx, t2)) <= 1e-8
        assert abs(tw.d_eta_Z(deformed_ctx, t1, t2)
                   - 2.0 * tw.metric_G(deformed_ctx,
                                       tw.phi(deformed_ctx, t1), t2)) <= 1e-8


def test_signature_counts(flat_ctx, deformed_ctx):
    # reported, not asserted against a fixed split beyond nondegeneracy
    for ctx in (flat_ctx, deformed_ctx):
        pos, neg, zero = tw.g_signature(ctx)
        assert zero == 0
        assert pos + neg == 4 * 1 + 5


def test_differential_closed_forms(deformed_ctx):
    # unit horizontal pair aligned by the fibre structure gives exactly 2
    rng = np.random.default_rng(6)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    t1 = tw.TwistorTangent(v, np.zeros(3), np.zeros(3))
    t2 = tw.TwistorTangent(deformed_ctx.i_matrix @ v, np.zeros(3), np.zeros(3))
    assert tw.d_eta_Z(deformed_ctx, t1, t2) == pytest.approx(2.0, abs=1e-12)


def test_differential_reeb_pair_vanishes_at_zero_tau(flat_ctx):
    rot = tw.rotation_from_x(FIBRE)
    w2 = tw.TwistorTangent(np.zeros(4), rot[1], np.zeros(3))
    w3 = tw.TwistorTangent(np.zeros(4), rot[2], np.zeros(3))
    assert abs(tw.d_eta_Z(flat_ctx, w2, w3)) <= 1e-8


def test_differential_fd_oracle_flat(h1):
    assert tw.d_eta_Z_fd_oracle(FrozenPivotStage(h1, POINT), FIBRE) <= 1e-5


def test_differential_fd_oracle_recovers_tau_term(deformed, deformed_ctx):
    # tau != 0 here, so the Reeb-lift slot carries the -2 tau value
    assert abs(deformed_ctx.tau) > 1e-3
    rot = tw.rotation_from_x(FIBRE)
    w2 = tw.TwistorTangent(np.zeros(4), rot[1], np.zeros(3))
    w3 = tw.TwistorTangent(np.zeros(4), rot[2], np.zeros(3))
    slot = tw.d_eta_Z(deformed_ctx, w2, w3)
    assert slot == pytest.approx(-2.0 * deformed_ctx.tau, abs=1e-10)
    assert tw.d_eta_Z_fd_oracle(FrozenPivotStage(deformed, POINT),
                                FIBRE) <= 1e-5


# --- normality reports -------------------------------------------------------

def test_flat_report_normal(h1):
    rep = tw.lie_chi_G(h1, POINT, FIBRE)
    assert rep.normality_residual <= 1e-5
    assert rep.t0_norm <= 1e-5
    assert rep.verdict == "normal"


def test_deformed_report_not_normal(deformed_report):
    assert deformed_report.verdict == "not_normal"
    assert deformed_report.normality_residual >= 1e-3
    assert deformed_report.t0_norm >= 1e-4


def test_two_report_paths_agree(deformed, deformed_report, deformed_base):
    rep2 = tw.report_from_base(deformed_base, FIBRE)
    assert np.abs(deformed_report.hh - rep2.hh).max() <= 1e-5
    assert np.abs(deformed_report.hv - rep2.hv).max() <= 1e-4
    assert np.abs(deformed_report.vv - rep2.vv).max() <= 1e-4
    assert rep2.verdict == deformed_report.verdict


def test_hh_slot_is_twice_symmetric_torsion(deformed_report, deformed_base):
    # the closed-form slot equals 2 g(T0_{xi'_1} X, Y) with the torsion from
    # the connection stage, rotated algebraically: two code paths
    expected = 2.0 * np.einsum("s,sab->ab", FIBRE, deformed_base.torsion.T0_xi)
    assert np.abs(deformed_report.hh - expected).max() <= 1e-5


def test_zero_torsion_system_on_flat_chart(h1):
    base = tw.base_point_data(h1, POINT)
    for x in tw.fibonacci_sphere(5):
        rep = tw.report_from_base(base, x)
        assert rep.mixed_residual <= 1e-4
        assert rep.vertical_trace_residual <= 1e-4
        assert rep.vertical_cross_residual <= 1e-4


def test_fibre_consistency_on_zero_torsion_base(h1):
    base = tw.base_point_data(h1, POINT)
    reports = [tw.report_from_base(base, x) for x in tw.fibonacci_sphere(4)]
    assert all(r.verdict == "normal" for r in reports)
    assert max(r.normality_residual for r in reports) <= 1e-4


def test_report_at_antipodal_fibre_point(h1):
    # exercises the fixed half-turn branch of the gauge rotation
    rep = tw.lie_chi_G(h1, POINT, np.array([-1.0, 0.0, 0.0]))
    assert rep.verdict == "normal"
    assert rep.normality_residual <= 1e-5


def test_fibonacci_sphere_deterministic_unit():
    pts = tw.fibonacci_sphere(20)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12
    assert np.abs(pts - tw.fibonacci_sphere(20)).max() == 0.0


# --- oracles ------------------------------------------------------------------

def test_direct_oracle_flat(h1):
    out = tw.normality_direct_oracle(FrozenPivotStage(h1, POINT), FIBRE,
                                     sample_pairs=10, seed=3)
    assert out["max_deviation"] <= 1e-4
    assert out["slot_deviation"] <= 1e-4
    # vertical-vertical pairs vanish directly
    assert np.abs(out["direct"][-2:, -2:]).max() <= 1e-5


def test_direct_oracle_deformed(deformed, deformed_report):
    out = tw.normality_direct_oracle(FrozenPivotStage(deformed, POINT), FIBRE,
                                     sample_pairs=20, seed=3,
                                     report=deformed_report)
    assert out["max_deviation"] <= 1e-4
    assert np.abs(out["direct"]).max() >= 1e-3  # values genuinely large
    assert np.abs(out["direct"][-2:, -2:]).max() <= 1e-5


def test_cr_integrability_flat(h1):
    out = tw.cr_nijenhuis_residual(FrozenPivotStage(h1, POINT), FIBRE,
                                   sample_pairs=5, seed=5)
    assert out["nijenhuis"] <= 1e-4
    assert out["levi"] <= 1e-5


def test_cr_integrability_deformed(deformed):
    # integrability holds for every quaternionic contact structure, with or
    # without torsion
    out = tw.cr_nijenhuis_residual(FrozenPivotStage(deformed, POINT), FIBRE,
                                   sample_pairs=5, seed=5)
    assert out["nijenhuis"] <= 1e-4
    assert out["levi"] <= 1e-5


def test_cr_negative_control(h1):
    out = tw.cr_nijenhuis_residual(FrozenPivotStage(h1, POINT), FIBRE,
                                   sample_pairs=5, seed=5, flip_vertical=True)
    assert out["nijenhuis"] > 1e-1


def test_ricci_commutes_iff_torsion_vanishes(h1, deformed, deformed_base):
    flat_base = tw.base_point_data(h1, POINT)
    for s in range(3):
        I = flat_base.frame.I[s]
        comm = I.T @ flat_base.curv.Ric @ I - flat_base.curv.Ric
        assert np.abs(comm).max() <= 1e-4
    worst = 0.0
    for s in range(3):
        I = deformed_base.frame.I[s]
        comm = I.T @ deformed_base.curv.Ric @ I - deformed_base.curv.Ric
        expected = (2 + 2) * (I.T @ deformed_base.torsion.T0 @ I
                              - deformed_base.torsion.T0)
        assert np.abs(comm - expected).max() <= 1e-4
        worst = max(worst, np.abs(comm).max())
    assert worst >= 1e-3
