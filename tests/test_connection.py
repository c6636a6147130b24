import dataclasses

import numpy as np
import pytest

from qclab.catalog import conformal, heisenberg
from qclab.chart import FrameJet, frame_field
from qclab.connection import (connection_at_point, horizontal_partial,
                              torsion_reconstruction_check, torsion_split, torsion_tensors,
                              vertical_on_H, xi_derivatives)
from qclab.curvature import FrozenPivotStage
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
    fr2 = frame_field(deformed_chart, POINT, pivot_order=permuted)
    conn2 = connection_at_point(FrameJet(deformed_chart, fr2))
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
    jet = FrameJet(deformed_chart, frame_field(deformed_chart, POINT))
    gamma = horizontal_partial(jet)
    C, T, B, diag = vertical_on_H(jet)
    _, _, alpha, _ = xi_derivatives(jet, C)
    conn = FrozenPivotStage(deformed_chart, POINT).connection(POINT)
    tors = torsion_tensors(conn)
    assert np.abs(gamma - conn.gamma).max() <= 1e-9
    assert np.abs(T - conn.T).max() <= 1e-9
    assert np.abs(alpha - conn.alpha).max() <= 1e-9
    T0, b, u_tensor, d = torsion_split(T, jet.frame.I, deformed_chart.n)
    assert np.abs(T0 - tors.T0_xi).max() <= 1e-12
    assert np.abs(u_tensor - tors.u_tensor).max() <= 1e-12
