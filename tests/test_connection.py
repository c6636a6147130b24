import dataclasses

import numpy as np
import pytest

from qclab.algebra import (project_P, project_sp1, skew_part, sp1_component,
                           torsion_skew_basis)
from qclab.catalog import conformal, heisenberg
from qclab.chart import FrameJet, frame_field, jet_points
from qclab.connection import (connection_at_point, horizontal_partial,
                              torsion_reconstruction_check, torsion_split, torsion_tensors,
                              vertical_on_H, xi_derivatives)
from qclab.curvature import FrozenPivotStage
from qclab.tolerances import DEFAULT_STEPS
from qclab.twistor import rotation_from_x

RNG = np.random.default_rng(21)
POINT = RNG.uniform(-1, 1, 7)


@pytest.fixture(scope="module")
def flat_conn():
    return FrozenPivotStage(heisenberg(1), POINT).connection(POINT)


@pytest.fixture(scope="module")
def deformed_chart():
    return conformal(heisenberg(1), "exp(0.2*u1)")


@pytest.fixture(scope="module")
def deformed_conn(deformed_chart):
    return FrozenPivotStage(deformed_chart, POINT).connection(POINT)


def test_flat_horizontal_coefficients_vanish(flat_conn):
    assert np.abs(flat_conn.gamma).max() <= 1e-8


def test_horizontal_metricity_antisymmetry(deformed_conn):
    g = deformed_conn.gamma
    assert max(np.abs(g[a] + g[a].T).max() for a in range(4)) <= 1e-8


def test_horizontal_koszul_residuals(deformed_chart):
    conn = FrozenPivotStage(deformed_chart, POINT).connection(POINT)
    assert conn.diagnostics["metricity_H"] <= 1e-7
    assert conn.diagnostics["torsion_H"] <= 1e-7
    assert np.abs(conn.gamma).max() > 1e-3  # genuinely curved frame


def test_flat_vertical_matrices_vanish(flat_conn):
    assert np.abs(flat_conn.B).max() <= 1e-8
    assert np.abs(flat_conn.C).max() <= 1e-8
    assert np.abs(flat_conn.T).max() <= 1e-8


def test_torsion_lies_in_its_subspace(deformed_conn):
    assert deformed_conn.diagnostics["torsion_direction"] <= 1e-8
    assert deformed_conn.diagnostics["q_preservation"] <= 1e-7


def test_torsion_completely_trace_free(deformed_conn):
    assert deformed_conn.diagnostics["torsion_trace"] <= 1e-7
    assert deformed_conn.diagnostics["torsion_trace_I"] <= 1e-7


def test_torsion_split_structure(deformed_conn):
    d = torsion_tensors(deformed_conn).diagnostics
    assert d["t0_anticommute"] <= 1e-7
    assert d["t0_cross_relations"] <= 1e-7
    assert d["u_spread"] <= 1e-7
    assert d["u_norm_dim7"] <= 1e-8  # u vanishes in dimension seven


def test_flat_alpha_vanishes(flat_conn):
    assert np.abs(flat_conn.alpha).max() <= 1e-8


def test_vertical_metricity(deformed_conn):
    assert deformed_conn.diagnostics["V_metricity"] <= 1e-8


def test_torsion_tensors_flat(flat_conn):
    tors = torsion_tensors(flat_conn)
    assert tors.t0_norm <= 1e-8
    assert tors.u_norm <= 1e-8


def test_torsion_tensor_identities(deformed_conn):
    tors = torsion_tensors(deformed_conn)
    assert tors.t0_norm > 1e-4
    d = tors.diagnostics
    assert d["t0_quaternion_sum"] <= 1e-7
    assert d["u_quaternion_invariance"] <= 1e-7
    assert d["form_traces"] <= 1e-7
    assert d["form_symmetry"] <= 1e-8
    assert d["t0_endo_equivalence"] <= 1e-7


def test_torsion_reconstruction(deformed_conn):
    tors = torsion_tensors(deformed_conn)
    assert torsion_reconstruction_check(deformed_conn, tors) <= 1e-7


def test_torsion_reconstruction_detects_corruption(deformed_conn):
    tors = torsion_tensors(deformed_conn)
    corrupted = dataclasses.replace(tors, U=tors.U + 1e-3 * np.eye(4),
                                    diagnostics={})
    residual = torsion_reconstruction_check(deformed_conn, corrupted)
    assert 3e-4 <= residual <= 3e-3


def test_frame_rotation_leaves_scalar_invariants(deformed_chart):
    # rebuilding the frame with a different pivot order rotates e_a by an
    # orthogonal matrix; the tensor norms must not move
    base = FrozenPivotStage(deformed_chart, POINT).connection(POINT)
    tors = torsion_tensors(base)
    order = base.frame.pivot_order
    permuted = tuple(reversed(order))
    h = DEFAULT_STEPS.fd
    frames = frame_field(deformed_chart,
                         np.vstack([POINT, jet_points(POINT, h)]),
                         pivot_order=permuted)
    conn2 = connection_at_point(
        FrameJet(deformed_chart, frames[0], frames[1:], h))
    tors2 = torsion_tensors(conn2)
    assert tors2.t0_norm == pytest.approx(tors.t0_norm, abs=1e-7)
    assert tors2.u_norm == pytest.approx(tors.u_norm, abs=1e-7)
    eig1 = np.sort(np.linalg.eigvalsh(tors.u_tensor))
    eig2 = np.sort(np.linalg.eigvalsh(tors2.u_tensor))
    assert np.abs(eig1 - eig2).max() <= 1e-7


def test_gauge_rotation_leaves_invariant_tensors(deformed_chart, deformed_conn):
    # a constant rotation of the admissible coframe triple leaves the
    # invariant 2-tensors on H unchanged (same adapted frame on both sides)
    rng = np.random.default_rng(33)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    rot = rotation_from_x(x)
    rotated = deformed_chart.rotated(rot)
    conn_rot = FrozenPivotStage(rotated, POINT).connection(POINT)
    tors = torsion_tensors(deformed_conn)
    tors_rot = torsion_tensors(conn_rot)
    assert np.abs(tors.T0 - tors_rot.T0).max() <= 1e-7
    assert np.abs(tors.U - tors_rot.U).max() <= 1e-7


def test_n2_deformed_u_tensor_nonzero():
    chart = conformal(heisenberg(2), "exp(0.2*u1)")
    rng = np.random.default_rng(12)
    u = rng.uniform(-1, 1, 11)
    conn = FrozenPivotStage(chart, u).connection(u)
    tors = torsion_tensors(conn)
    assert tors.u_norm > 1e-4          # nonvanishing beyond dimension seven
    assert tors.t0_norm > 1e-4
    assert tors.diagnostics["t0_quaternion_sum"] <= 1e-7
    assert tors.diagnostics["u_quaternion_invariance"] <= 1e-7
    assert torsion_reconstruction_check(conn, tors) <= 1e-7


def test_individual_stage_entrypoints(deformed_chart):
    # the staged operations agree with the orchestrated assembly
    conn = FrozenPivotStage(deformed_chart, POINT).connection(POINT)
    jet = conn.jet
    gamma = horizontal_partial(jet)
    C, T, B, diag = vertical_on_H(jet)
    _, _, alpha, _ = xi_derivatives(jet, C)
    tors = torsion_tensors(conn)
    assert np.abs(gamma - conn.gamma).max() <= 1e-9
    assert np.abs(T - conn.T).max() <= 1e-9
    assert np.abs(alpha - conn.alpha).max() <= 1e-9
    T0, b, u_tensor, d = torsion_split(T, jet.frame.I, deformed_chart.n)
    assert np.abs(T0 - tors.T0_xi).max() <= 1e-12
    assert np.abs(u_tensor - tors.u_tensor).max() <= 1e-12


def _loop_connection(jet):
    """Reference: brackets pair by pair and the vertical least squares one
    s at a time, as (gamma, B, C, nabla_xi_v, alpha)."""
    fr, f, triple = jet.frame, jet.fourn, jet.frame.I
    fields = np.hstack([fr.eH, fr.xi])
    jac = np.concatenate([jet.d_eH, jet.d_xi], axis=1)
    br = {(a, b): jac[:, b] @ fields[:, a] - jac[:, a] @ fields[:, b]
          for a in range(jet.m) for b in range(jet.m)}
    brhh = np.array([[fr.h_components(br[a, b]) for b in range(f)]
                     for a in range(f)])
    gamma = 0.5 * (brhh.transpose(0, 2, 1) - brhh.transpose(2, 1, 0)
                   + brhh.transpose(1, 0, 2))
    B = np.array([np.column_stack([fr.h_components(br[f + s, a])
                                   for a in range(f)]) for s in range(3)])

    def off_sp1_commutators(M):
        return np.concatenate([(M @ I - I @ M - sp1_component(M @ I - I @ M,
                                                              triple)).ravel()
                               for I in triple])

    basis = torsion_skew_basis(triple)
    C = []
    for s in range(3):
        sb = skew_part(B[s])
        base = project_P(sb, triple) + sp1_component(sb, triple)
        rhs = -np.concatenate([
            (D - sp1_component(D, triple)).ravel()
            for D in (jet.directional_I(t, fr.xi[:, s]) + base @ triple[t]
                      - triple[t] @ base for t in range(3))])
        if len(basis):
            cols = np.column_stack([off_sp1_commutators(E) for E in basis])
            coeffs = np.linalg.lstsq(cols, rhs, rcond=None)[0]
            base = base + sum(c * E for c, E in zip(coeffs, basis))
        C.append(base)
    nabla_v = np.array([[project_sp1(
        jet.directional_I(s, fr.xi[:, t]) + C[t] @ triple[s]
        - triple[s] @ C[t], triple) for s in range(3)] for t in range(3)])
    nabla_h = np.array([[fr.v_components(br[a, f + s]) for s in range(3)]
                        for a in range(f)])
    nabla = np.concatenate([nabla_h, nabla_v])
    alpha = np.array([nabla[:, (k + 1) % 3, (k + 2) % 3] for k in range(3)])
    return gamma, B, np.array(C), nabla_v, alpha


@pytest.mark.parametrize("n", [1, 2])
def test_array_form_matches_loop_reference(n):
    chart = conformal(heisenberg(n), "exp(0.2*u1)")
    u = chart.sample_points(1, seed=9)[0]
    conn = FrozenPivotStage(chart, u).connection(u)
    scale = max(np.abs(conn.gamma).max(), np.abs(conn.C).max(), 1.0)
    for ref, got in zip(_loop_connection(conn.jet),
                        (conn.gamma, conn.B, conn.C, conn.nabla_xi_v,
                         conn.alpha)):
        assert np.abs(ref - got).max() <= 1e-12 * scale
