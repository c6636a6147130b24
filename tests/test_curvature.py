import numpy as np
import pytest

from qclab.catalog import conformal, heisenberg
from qclab.connection import torsion_tensors
from qclab.curvature import (FrozenPivotStage, alpha_identity_check,
                             curvature_at_point, curvature_endo,
                             ricci_decomposition_residual, step_diagnostic,
                             vertical_form_identity_residual)
from qclab.tolerances import Steps

RNG = np.random.default_rng(31)
POINT = RNG.uniform(-1, 1, 7)


@pytest.fixture(scope="module")
def flat_curv():
    return curvature_at_point(FrozenPivotStage(heisenberg(1), POINT), POINT)


@pytest.fixture(scope="module")
def deformed_chart():
    return conformal(heisenberg(1), "exp(0.2*u1)")


@pytest.fixture(scope="module")
def deformed_data(deformed_chart):
    stage = FrozenPivotStage(deformed_chart, POINT)
    conn = stage.connection(POINT)
    curv = curvature_at_point(stage, POINT)
    return conn, curv


def test_flat_curvature_vanishes(flat_curv):
    assert np.abs(flat_curv.R).max() <= 1e-7
    assert abs(flat_curv.Scal) <= 1e-6
    assert abs(flat_curv.tau) <= 1e-6
    assert np.abs(flat_curv.Ric).max() <= 1e-6
    assert np.abs(flat_curv.dtau_xi).max() <= 1e-6


def test_curvature_antisymmetry_and_metricity(deformed_data):
    _, curv = deformed_data
    assert np.abs(curv.R + curv.R.transpose(1, 0, 2, 3)).max() <= 1e-12
    assert curv.diagnostics["curvature_metricity"] <= 1e-6
    assert np.abs(curv.R).max() > 1e-3


def test_single_pair_matches_full_computation(deformed_chart, deformed_data):
    _, curv = deformed_data
    stage = FrozenPivotStage(deformed_chart, POINT)
    M = curvature_endo(stage, 1, 5)
    assert np.abs(M - curv.R[1, 5]).max() <= 1e-9
    M2 = curvature_endo(stage, 5, 1)
    assert np.abs(M2 + M).max() <= 1e-12


def test_ricci_symmetry(deformed_data):
    _, curv = deformed_data
    assert np.abs(curv.Ric - curv.Ric.T).max() <= 1e-5


def test_ricci_decomposition(deformed_data):
    conn, curv = deformed_data
    tors = torsion_tensors(conn)
    assert ricci_decomposition_residual(curv, tors, 4) <= 1e-4


def test_tau_definition_exact(deformed_data):
    _, curv = deformed_data
    assert curv.tau * 16 * 1 * 3 == pytest.approx(curv.Scal, rel=1e-15)


def test_step_halving_consistency(deformed_chart):
    # in the truncation-dominated regime the h -> h/2 change shrinks about
    # 4x (second-order differencing)
    delta1, delta2, ratio = step_diagnostic(deformed_chart, POINT, 0, 1,
                                            steps=Steps(curv=0.05))
    assert 3.0 <= ratio <= 5.5


def test_step_diagnostic_flags_noise_domination(deformed_chart):
    from qclab.errors import StepTooSmall
    with pytest.raises(StepTooSmall):
        step_diagnostic(deformed_chart, POINT, 0, 1, steps=Steps(curv=4e-3),
                        raise_on_noise=True)


def test_alpha_identity_both_charts(flat_curv, deformed_data):
    assert alpha_identity_check(flat_curv.conn, flat_curv) <= 1e-5
    conn, curv = deformed_data
    assert alpha_identity_check(conn, curv) <= 1e-5


def test_alpha_identity_detects_injected_fault(deformed_data):
    conn, curv = deformed_data
    frame = conn.frame
    alpha_vert = conn.alpha[:, 4:].copy()
    dxx = np.einsum("ri,srq,qj->sij", frame.xi, frame.dcoframe, frame.xi)
    clean = vertical_form_identity_residual(alpha_vert, dxx, curv.tau)
    alpha_vert[0, 0] += 1e-2
    bumped = vertical_form_identity_residual(alpha_vert, dxx, curv.tau)
    assert bumped == pytest.approx(1e-2, rel=0.05)
    assert clean <= 1e-5


def test_homothety_preserves_flatness():
    chart = conformal(heisenberg(1), "2")
    stage = FrozenPivotStage(chart, POINT)
    conn = stage.connection(POINT)
    tors = torsion_tensors(conn)
    curv = curvature_at_point(stage, POINT, pairs="horizontal")
    assert tors.t0_norm <= 1e-6
    assert tors.u_norm <= 1e-6
    assert abs(curv.Scal) <= 1e-6


def test_einstein_degeneration_on_zero_torsion_chart(flat_curv):
    # with both invariant tensors zero the horizontal Ricci form reduces to
    # the pure trace part
    expected = (flat_curv.Scal / 4.0) * np.eye(4)
    assert np.abs(flat_curv.Ric - expected).max() <= 1e-4


def test_mixed_slots_present(deformed_data):
    _, curv = deformed_data
    # vertical and mixed curvature slots are filled (needed by the twistor
    # report) and antisymmetric
    assert np.abs(curv.rho + curv.rho.transpose(0, 2, 1)).max() <= 1e-15
    assert np.abs(curv.rho[:, :4, 4:]).max() > 0.0
