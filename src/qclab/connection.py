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


def _swap(a):
    return np.swapaxes(a, -1, -2)


def _h_brackets(jet):
    """hc[c, alpha, beta] = g([f_alpha, f_beta]_H, e_c) for every pair of
    frame fields."""
    fr = jet.frame
    m = jet.m
    return (fr.eH.T @ fr.g_coord @ jet.brackets.reshape(m, m * m)).reshape(
        jet.fourn, m, m)


def _horizontal_brackets(jet):
    """brhh[a, b, c] = g([e_a, e_b]_H, e_c)."""
    fourn = jet.fourn
    return _h_brackets(jet)[:, :fourn, :fourn].transpose(1, 2, 0)


def _koszul(brhh):
    # gamma[a, c, b] = (brhh[a,b,c] - brhh[b,c,a] + brhh[c,a,b]) / 2
    return 0.5 * (brhh.transpose(0, 2, 1)
                  - brhh.transpose(2, 1, 0)
                  + brhh.transpose(1, 0, 2))


def horizontal_partial(jet):
    """Connection coefficients gamma[a][c, b] = g(grad_{e_a} e_b, e_c)."""
    return _koszul(_horizontal_brackets(jet))


def _horizontal_residuals(gamma, brhh):
    # gamma[a][:, b] - gamma[b][:, a] - [e_a, e_b]_H; antisymmetric in (a, b)
    torsion = gamma.transpose(0, 2, 1) - gamma.transpose(2, 0, 1) - brhh
    return {"metricity_H": float(np.abs(gamma + _swap(gamma)).max()),
            "torsion_H": float(np.abs(torsion).max())}


def _reeb_derivatives_of_I(jet):
    """dI[t, s] = derivative of the frame matrix of I_s along xi_t."""
    return (jet.d_I @ jet.frame.xi).transpose(3, 0, 1, 2)


def _commutators(M, triple):
    """[M, I_t] for t = 1, 2, 3: shape (..., 3, 4n, 4n) for M (..., 4n, 4n)."""
    M = M[..., None, :, :]
    I = triple.stack
    return M @ I - I @ M


def vertical_on_H(jet, tol=DEFAULT_TOLERANCES):
    """Full matrices C_s of grad_{xi_s} on the frame and the torsion
    endomorphisms T_s = C_s - B_s.

    Returns (C, T, B, diagnostics)."""
    frame = jet.frame
    fourn = jet.fourn
    triple = frame.I

    # B[s][:, a] = [xi_s, e_a]_H
    B = _h_brackets(jet)[:, fourn:, :fourn].transpose(1, 0, 2)

    def off_sp1(M):
        return M - sp1_component(M, triple)

    skew_b = skew_part(B)
    base = project_P(skew_b, triple) + sp1_component(skew_b, triple)
    rhs = -off_sp1(_reeb_derivatives_of_I(jet)
                   + _commutators(base, triple)).reshape(3, -1)
    # least squares over the torsion-skew basis mapped through [., I_t],
    # off sp(1): one matrix for every s
    basis = torsion_skew_basis(triple)
    if len(basis):
        images = off_sp1(_commutators(basis, triple)).reshape(len(basis), -1)
        coeffs = rhs @ np.linalg.pinv(images, rtol=None)  # lstsq's cutoff
        C = base + np.tensordot(coeffs, basis, axes=1)
        q_residual = float(np.abs(coeffs @ images - rhs).max())
    else:
        C = base
        q_residual = float(np.abs(rhs).max())

    if q_residual > tol.connection:
        raise QPreservationFail(
            "vertical derivative does not preserve the quaternion bundle",
            point=frame.point, residual=q_residual)

    T = C - B

    torsion_dir = np.abs(project_torsion_space(T, triple) - T).max()
    trace = np.abs(np.trace(T, axis1=1, axis2=2)).max()
    trace_i = np.abs(np.einsum("sij,tji->st", T, triple.stack)).max()
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
    m = jet.m
    triple = frame.I

    # nabla_xi_h[a, s] = eta([e_a, xi_s])
    vc = (frame.coframe @ jet.brackets.reshape(m, m * m)).reshape(3, m, m)
    nabla_xi_h = vc[:, :fourn, fourn:].transpose(1, 2, 0)

    # nabla_xi_v[t, s] = sp(1) coefficients of grad_{xi_t} I_s
    D = _reeb_derivatives_of_I(jet) + _commutators(C, triple)
    nabla_xi_v = project_sp1(D, triple)
    phi_residual = np.abs(np.diagonal(nabla_xi_v, axis1=1, axis2=2)).max()

    # V-metricity: the 3x3 matrix g(grad_A xi_s, xi_t) must be skew for each A
    nabla_xi = np.concatenate([nabla_xi_h, nabla_xi_v])
    v_metric = np.abs(nabla_xi + _swap(nabla_xi)).max()

    # alpha_k(A) = g(grad_A xi_i, xi_j) for (k, i, j) cyclic
    alpha = nabla_xi[:, [1, 2, 0], [2, 0, 1]].T

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
