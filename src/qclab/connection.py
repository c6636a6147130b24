"""Biquard connection at a point, assembled from its characterizing
conditions.

Horizontal part: the Koszul resolution of metricity plus the requirement
that the horizontal torsion of two horizontal fields is minus the vertical
part of their bracket.  In an orthonormal moving frame only bracket terms
survive:

    2 g(grad_X Y, Z) = g([X,Y]_H, Z) - g([Y,Z]_H, X) + g([Z,X]_H, Y).

Vertical derivative of H: the full matrix C_s of grad_{xi_s} on the frame is
skew (metricity); the commuting-skew and sp(1) components of C_s must agree
with those of the bracket matrix B_s (torsion orthogonal to both), and the
remaining component is fixed by requiring the induced derivative of the
quaternion bundle to stay inside it.  The torsion endomorphisms
T_s = C_s - B_s are then split into symmetric parts, the skew parts
b_s = I_s u, and the invariant symmetric 2-tensors on H.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (four_part_decompose, project_P, project_sp1,
                      project_torsion_space, skew_part, sp1_component,
                      sym_part, torsion_skew_basis)
from .chart import FrameJet
from .errors import QPreservationFail, TorsionStructureFail
from .tolerances import DEFAULT_TOLERANCES


def _horizontal_brackets(jet):
    """brhh[a, b, c] = g([e_a, e_b]_H, e_c)."""
    fourn = jet.fourn
    brhh = np.empty((fourn, fourn, fourn))
    for a in range(fourn):
        brhh[a, a] = 0.0
        for b in range(a + 1, fourn):
            hc = jet.frame.h_components(jet.bracket(a, b))
            brhh[a, b] = hc
            brhh[b, a] = -hc
    return brhh


def _koszul(brhh):
    # gamma[a, c, b] = (brhh[a,b,c] - brhh[b,c,a] + brhh[c,a,b]) / 2
    return 0.5 * (brhh.transpose(0, 2, 1)
                  - brhh.transpose(2, 1, 0)
                  + brhh.transpose(1, 0, 2))


def horizontal_partial(jet):
    """Connection coefficients gamma[a][c, b] = g(grad_{e_a} e_b, e_c)."""
    return _koszul(_horizontal_brackets(jet))


def _horizontal_residuals(gamma, brhh):
    fourn = gamma.shape[0]
    metricity = max(np.abs(gamma[a] + gamma[a].T).max() for a in range(fourn))
    # gamma[a][:, b] - gamma[b][:, a] - [e_a, e_b]_H; antisymmetric in (a, b)
    torsion = gamma.transpose(0, 2, 1) - gamma.transpose(2, 0, 1) - brhh
    return {"metricity_H": float(metricity),
            "torsion_H": float(np.abs(torsion).max())}


def vertical_on_H(jet, tol=DEFAULT_TOLERANCES):
    """Full matrices C_s of grad_{xi_s} on the frame and the torsion
    endomorphisms T_s = C_s - B_s.

    Returns (C, T, B, diagnostics)."""
    frame = jet.frame
    fourn = jet.fourn
    triple = frame.I

    B = np.empty((3, fourn, fourn))
    for s in range(3):
        for a in range(fourn):
            B[s][:, a] = frame.h_components(jet.bracket(fourn + s, a))

    def off_sp1(M):
        return M - sp1_component(M, triple)

    # the torsion-skew basis mapped through [., I_t], off sp(1): the same
    # for every s
    basis = torsion_skew_basis(triple)
    if basis:
        cols = np.column_stack([
            np.concatenate([
                off_sp1(E @ triple[t] - triple[t] @ E).ravel()
                for t in range(3)])
            for E in basis])
    C = np.empty_like(B)
    q_residual = 0.0
    for s in range(3):
        skew_b = skew_part(B[s])
        base = project_P(skew_b, triple) + sp1_component(skew_b, triple)
        dI0 = [jet.directional_I(t, frame.xi[:, s]) for t in range(3)]
        rhs = np.concatenate([
            -off_sp1(dI0[t] + base @ triple[t] - triple[t] @ base).ravel()
            for t in range(3)])
        if basis:
            coeffs, _, _, _ = np.linalg.lstsq(cols, rhs, rcond=None)
            extra = sum(c * E for c, E in zip(coeffs, basis))
            res = np.abs(cols @ coeffs - rhs).max()
        else:
            extra = np.zeros_like(base)
            res = np.abs(rhs).max() if rhs.size else 0.0
        C[s] = base + extra
        q_residual = max(q_residual, float(res))

    if q_residual > tol.connection:
        raise QPreservationFail(
            "vertical derivative does not preserve the quaternion bundle",
            point=frame.point, residual=q_residual)

    T = C - B

    torsion_dir = max(
        np.abs(project_torsion_space(T[s], triple) - T[s]).max()
        for s in range(3))
    trace = max(abs(np.trace(T[s])) for s in range(3))
    trace_i = max(abs(np.trace(T[s] @ triple[t]))
                  for s in range(3) for t in range(3))
    diagnostics = {
        "q_preservation": q_residual,
        "torsion_direction": float(torsion_dir),
        "torsion_trace": float(trace),
        "torsion_trace_I": float(trace_i),
    }
    return C, T, B, diagnostics


def xi_derivatives(jet, C):
    """Derivatives of the Reeb fields and the vertical connection 1-forms.

    grad_{e_a} xi_s is the vertical part of [e_a, xi_s]; grad_{xi_t} xi_s is
    transferred from the quaternion-bundle derivative grad_{xi_t} I_s through
    the frame isomorphism xi_r -> I_r.  The 1-forms alpha are read off from
    grad xi_i = -alpha_j (x) xi_k + alpha_k (x) xi_j; ``C`` holds the
    vertical connection matrices from ``vertical_on_H``.

    Returns (nabla_xi_h, nabla_xi_v, alpha, diagnostics)."""
    frame = jet.frame
    fourn = jet.fourn
    triple = frame.I

    nabla_xi_h = np.empty((fourn, 3, 3))
    for a in range(fourn):
        for s in range(3):
            nabla_xi_h[a, s] = frame.v_components(jet.bracket(a, fourn + s))

    nabla_xi_v = np.empty((3, 3, 3))
    phi_residual = 0.0
    for t in range(3):
        for s in range(3):
            D = jet.directional_I(s, frame.xi[:, t]) \
                + C[t] @ triple[s] - triple[s] @ C[t]
            coeffs = project_sp1(D, triple)
            nabla_xi_v[t, s] = coeffs
            phi_residual = max(phi_residual, abs(coeffs[s]))

    # V-metricity: the 3x3 matrix g(grad_A xi_s, xi_t) must be skew for each A
    v_metric = 0.0
    for a in range(fourn):
        v_metric = max(v_metric, np.abs(nabla_xi_h[a] + nabla_xi_h[a].T).max())
    for t in range(3):
        v_metric = max(v_metric, np.abs(nabla_xi_v[t] + nabla_xi_v[t].T).max())

    alpha = np.empty((3, jet.m))
    cyclic = {2: (0, 1), 0: (1, 2), 1: (2, 0)}  # alpha_k(A) = g(grad_A xi_i, xi_j)
    for k, (i, j) in cyclic.items():
        for a in range(fourn):
            alpha[k, a] = nabla_xi_h[a, i, j]
        for t in range(3):
            alpha[k, fourn + t] = nabla_xi_v[t, i, j]

    diagnostics = {"V_metricity": float(v_metric),
                   "phi_transfer": float(phi_residual)}
    return nabla_xi_h, nabla_xi_v, alpha, diagnostics


def torsion_split(T, triple, n, tol=DEFAULT_TOLERANCES, point=None):
    """Split each torsion endomorphism into the symmetric part, the skew
    part b_s = I_s u, and recover the shared symmetric tensor u (averaged
    over the three recoveries; the spread is reported).

    Returns (T0, b, u, diagnostics)."""
    T0 = np.array([sym_part(T[s]) for s in range(3)])
    b = np.array([skew_part(T[s]) for s in range(3)])
    u_candidates = np.array([-triple[s] @ b[s] for s in range(3)])
    u = u_candidates.mean(axis=0)
    spread = float(max(np.abs(u_candidates[s] - u).max() for s in range(3)))

    anti = max(np.abs(T0[s] @ triple[s] + triple[s] @ T0[s]).max()
               for s in range(3))

    parts = [four_part_decompose(T0[s], triple) for s in range(3)]
    cross = [
        np.abs(triple[1] @ parts[1].p_pmm - triple[0] @ parts[0].p_mpm).max(),
        np.abs(triple[2] @ parts[2].p_mpm - triple[1] @ parts[1].p_mmp).max(),
        np.abs(triple[0] @ parts[0].p_mmp - triple[2] @ parts[2].p_pmm).max(),
    ]

    u_sym = np.abs(u - u.T).max()
    u_trace = abs(np.trace(u))
    u_comm = max(np.abs(u @ triple[t] - triple[t] @ u).max() for t in range(3))

    diagnostics = {
        "u_spread": spread,
        "t0_anticommute": float(anti),
        "t0_cross_relations": float(max(cross)),
        "u_symmetry": float(u_sym),
        "u_trace": float(u_trace),
        "u_commute": float(u_comm),
    }
    if n == 1:
        diagnostics["u_norm_dim7"] = float(np.abs(u).max())

    structural = max(anti, max(cross), u_sym, u_comm)
    if structural > 10 * tol.connection or spread > 10 * tol.u_tensor:
        raise TorsionStructureFail(
            "torsion endomorphisms violate their structure relations",
            point=point, residual=float(max(structural, spread)))
    return T0, b, u, diagnostics


@dataclass
class TorsionTensors:
    """The two invariant symmetric 2-tensors on H, as value matrices on the
    frame: T0[a, b] = T0(e_a, e_b) and U[a, b] = U(e_a, e_b); the symmetric
    parts T0_xi[s] of the torsion endomorphisms and the tensor u they were
    assembled from; and the split and re-check diagnostics."""

    T0: np.ndarray
    U: np.ndarray
    T0_xi: np.ndarray          # (3, 4n, 4n)
    u_tensor: np.ndarray       # (4n, 4n)
    diagnostics: dict

    @property
    def t0_norm(self):
        return float(np.linalg.norm(self.T0))

    @property
    def u_norm(self):
        return float(np.linalg.norm(self.U))


def torsion_tensors(conn, tol=DEFAULT_TOLERANCES):
    """Split the torsion endomorphisms (``torsion_split``), assemble
    T0(X, Y) = g((T0_{xi_1} I_1 + T0_{xi_2} I_2 + T0_{xi_3} I_3)X, Y)
    and U(X, Y) = g(uX, Y), and re-check their defining properties."""
    frame = conn.frame
    triple = frame.I
    T0_xi, _, u_tensor, diagnostics = torsion_split(
        conn.T, triple, conn.jet.chart.n, tol=tol, point=frame.point)
    M = sum(T0_xi[s] @ triple[s] for s in range(3))
    T0_form = M.T
    U_form = u_tensor.T

    sym_res = max(np.abs(T0_form - T0_form.T).max(),
                  np.abs(U_form - U_form.T).max())
    quat_sum = T0_form + sum(triple[s].T @ T0_form @ triple[s] for s in range(3))
    u_invar = max(np.abs(U_form - triple[s].T @ U_form @ triple[s]).max()
                  for s in range(3))
    traces = [abs(np.trace(T0_form)), abs(np.trace(U_form))]
    traces += [abs(np.trace(T0_form @ triple[s])) for s in range(3)]
    traces += [abs(np.trace(U_form @ triple[s])) for s in range(3)]
    # 4 g(T0(xi_s, X), Y) = -T0(I_s X, Y) - T0(X, I_s Y), i.e. the endomorphism
    # form of the tensor reproduces each symmetric torsion part:
    equiv = max(
        np.abs(4.0 * T0_xi[s]
               + (triple[s].T @ T0_form + T0_form @ triple[s]).T).max()
        for s in range(3))
    diagnostics.update({
        "form_symmetry": float(sym_res),
        "t0_quaternion_sum": float(np.abs(quat_sum).max()),
        "u_quaternion_invariance": float(u_invar),
        "form_traces": float(max(traces)),
        "t0_endo_equivalence": float(equiv),
    })
    return TorsionTensors(T0=T0_form, U=U_form, T0_xi=T0_xi,
                          u_tensor=u_tensor, diagnostics=diagnostics)


def torsion_reconstruction_check(conn, torsion):
    """Residual of the torsion reconstruction from the invariant tensors:
    g(T(xi_s, X), Y) = -(T0(I_s X, Y) + T0(X, I_s Y))/4 + U(I_s X, Y)."""
    triple = conn.frame.I
    worst = 0.0
    for s in range(3):
        lhs = conn.T[s].T
        rhs = -(triple[s].T @ torsion.T0 + torsion.T0 @ triple[s]) / 4.0 \
            + triple[s].T @ torsion.U
        worst = max(worst, np.abs(lhs - rhs).max())
    return float(worst)


@dataclass
class ConnectionAtPoint:
    """Connection data in the adapted frame at one point."""

    frame: object
    jet: FrameJet
    gamma: np.ndarray          # (4n, 4n, 4n): gamma[a][c, b]
    B: np.ndarray              # (3, 4n, 4n) bracket matrices
    C: np.ndarray              # (3, 4n, 4n) vertical connection matrices
    T: np.ndarray              # (3, 4n, 4n) torsion endomorphisms
    nabla_xi_h: np.ndarray     # (4n, 3, 3)
    nabla_xi_v: np.ndarray     # (3, 3, 3)
    alpha: np.ndarray          # (3, m)
    diagnostics: dict

    @property
    def fourn(self):
        return self.gamma.shape[0]

    def stacked_matrices(self):
        return np.concatenate([self.gamma, self.C], axis=0)


def connection_at_point(jet, tol=DEFAULT_TOLERANCES):
    """Assemble the full connection at the jet's point.  The torsion
    endomorphisms T are split by ``torsion_tensors``."""
    brhh = _horizontal_brackets(jet)
    gamma = _koszul(brhh)
    diagnostics = _horizontal_residuals(gamma, brhh)
    C, T, B, diag_v = vertical_on_H(jet, tol=tol)
    diagnostics.update(diag_v)
    nabla_xi_h, nabla_xi_v, alpha, diag_x = xi_derivatives(jet, C)
    diagnostics.update(diag_x)
    return ConnectionAtPoint(frame=jet.frame, jet=jet, gamma=gamma, B=B, C=C,
                             T=T, nabla_xi_h=nabla_xi_h,
                             nabla_xi_v=nabla_xi_v, alpha=alpha,
                             diagnostics=diagnostics)
