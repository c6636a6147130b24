"""Coordinate charts carrying a quaternionic contact structure.

A chart of dimension m = 4n+3 is described by the three coframe 1-forms
eta_s = sum_r coeffs[s][r] du^r with expression-valued coefficients.  From
the coframe alone the module recovers, pointwise:

  * the horizontal distribution H (kernel of the coframe),
  * the compatible metric g and quaternion triple on H fixed by
    d eta_s(X, Y) = 2 g(I_s X, Y),
  * the Reeb fields xi_s dual to the coframe and satisfying the shared
    vertical-space compatibility (i_{xi_s} d eta_t)|H = -(i_{xi_t} d eta_s)|H,
  * a deterministic adapted orthonormal frame of H.

The exterior-derivative convention carries no 1/2 factor:
d eta(X, Y) = X eta(Y) - Y eta(X) - eta([X, Y]), so in coordinates
(d eta_s)_{rq} = d_r c_{s,q} - d_q c_{s,r}.
"""

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .algebra import QuaternionTriple
from .errors import (BiquardConditionFail, DegenerateCoframe, DegenerateLevi,
                     EvalDomainError, IllConditioned, NotPositive,
                     NotQuaternionic)
from .tolerances import DEFAULT_STEPS, DEFAULT_TOLERANCES

# GS pivots: relative tie snap for seed norms, and drop threshold for
# near-degenerate seed directions.
_PIVOT_TIE = 1e-6
_PIVOT_DROP = 1e-8


@dataclass(frozen=True)
class QCChart:
    """Immutable chart: quaternionic dimension n, coordinates u1..um with
    m = 4n+3, and the 3 x m coefficient expressions of the coframe."""

    n: int
    coeffs: tuple          # 3 tuples of m exprlang.Expr
    domain_box: tuple = None   # optional m pairs (lo, hi)
    name: str = ""

    def __post_init__(self):
        m = self.m
        if len(self.coeffs) != 3 or any(len(row) != m for row in self.coeffs):
            raise ValueError(f"coefficient array must be 3 x {m}")
        if self.domain_box is not None and len(self.domain_box) != m:
            raise ValueError(f"domain box must have {m} entries")

    @property
    def m(self):
        return 4 * self.n + 3

    def eval_coframe(self, u):
        """Component matrix of the coframe at u: shape (3, m).  A domain
        error names the point."""
        u = np.asarray(u, dtype=float)
        out = np.empty((3, self.m))
        try:
            for s in range(3):
                for r in range(self.m):
                    out[s, r] = self.coeffs[s][r].eval(u)
        except EvalDomainError as exc:
            raise EvalDomainError(str(exc), point=u) from exc
        return out

    def eval_dcoframe(self, u):
        """Exterior derivatives as three m x m skew matrices (exact forward-
        mode derivatives of the coefficients; skew by construction).  A
        domain error names the point."""
        u = np.asarray(u, dtype=float)
        m = self.m
        duals = exprlang.make_duals(u)
        out = np.empty((3, m, m))
        try:
            for s in range(3):
                P = np.empty((m, m))
                for q in range(m):
                    P[:, q] = self.coeffs[s][q].eval_dual(duals).partials
                out[s] = P - P.T
        except EvalDomainError as exc:
            raise EvalDomainError(str(exc), point=u) from exc
        return out

    def rotated(self, rot):
        """Chart with the coframe triple replaced by a constant SO(3)
        rotation of it: eta'_s = sum_t rot[s,t] eta_t."""
        rot = np.asarray(rot, dtype=float)
        new_rows = []
        for s in range(3):
            row = []
            for r in range(self.m):
                terms = []
                for t in range(3):
                    c = rot[s, t]
                    if c == 0.0:
                        continue
                    base = self.coeffs[t][r]
                    terms.append(base if c == 1.0
                                 else exprlang.Mul(exprlang.Const(c), base))
                if not terms:
                    node = exprlang.Const(0.0)
                else:
                    node = terms[0]
                    for extra in terms[1:]:
                        node = exprlang.Add(node, extra)
                row.append(node)
            new_rows.append(tuple(row))
        return QCChart(self.n, tuple(new_rows), self.domain_box,
                       name=self.name + "+rot" if self.name else "")

    def sample_points(self, count, seed):
        """Deterministic sample of points in the domain box (defaults to
        [-1, 1]^m when no box is declared)."""
        rng = np.random.default_rng(seed)
        box = self.domain_box or tuple((-1.0, 1.0) for _ in range(self.m))
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        return lo + (hi - lo) * rng.random((count, self.m))


@dataclass
class Structure:
    """Recovered data on H at a point: null-space basis of the coframe
    (columns of ``hbasis``), the restricted two-forms, the quaternion triple
    and the metric, all expressed in that basis."""

    coframe: np.ndarray        # (3, m)
    dcoframe: np.ndarray       # (3, m, m)
    hbasis: np.ndarray         # (m, 4n), orthonormal columns
    omega: np.ndarray          # (3, 4n, 4n): restriction of (1/2) d eta_s
    imatrices: np.ndarray      # (3, 4n, 4n): I_s in the hbasis
    gram: np.ndarray           # (4n, 4n): g in the hbasis
    residual: float

    def h_metric(self, v, w):
        """g on H for coordinate vectors lying in the kernel of the coframe."""
        yv = self.hbasis.T @ v
        yw = self.hbasis.T @ w
        return float(yv @ self.gram @ yw)


def recover_structure(chart, u, tol=DEFAULT_TOLERANCES):
    """Recover (H, g, I) at a point from the coframe and its differential.

    H is the null space of the 3 x m coframe matrix; the quaternion triple is
    rebuilt from the restricted two-forms omega_s = (1/2) d eta_s by
    I3 = omega2^{-1} omega1, I1 = omega3^{-1} omega2, I2 = omega1^{-1} omega3,
    and the metric by g = -omega1(I1 ., .).  Everything is validated before
    returning.
    """
    u = np.asarray(u, dtype=float)
    C = chart.eval_coframe(u)
    D = chart.eval_dcoframe(u)

    # rank-revealing null space
    _, sv, Vt = np.linalg.svd(C)
    if sv[2] <= 1e-12 * max(sv[0], 1.0):
        raise DegenerateCoframe("coframe matrix has rank < 3", point=u,
                                residual=float(sv[2]))
    N = Vt[3:].T  # (m, 4n)

    W = 0.5 * np.einsum("ri,srq,qj->sij", N, D, N)

    conds = [np.linalg.cond(W[s]) for s in range(3)]
    if max(conds) > 1e12:
        raise DegenerateLevi("restricted two-form is numerically singular",
                             point=u, residual=float(max(conds)))

    A = np.empty_like(W)
    A[2] = np.linalg.solve(W[1], W[0])
    A[0] = np.linalg.solve(W[2], W[1])
    A[1] = np.linalg.solve(W[0], W[2])

    G = -A[0].T @ W[0]
    G = 0.5 * (G + G.T)

    # validation: quaternion relations w.r.t. the recovered metric,
    # positivity, and the defining compatibility d eta_s = 2 g(I_s ., .)
    eye = np.eye(G.shape[0])
    residuals = [
        np.abs(A[0] @ A[0] + eye).max(),
        np.abs(A[1] @ A[1] + eye).max(),
        np.abs(A[2] @ A[2] + eye).max(),
        np.abs(A[0] @ A[1] - A[2]).max(),
        np.abs(A[1] @ A[0] + A[2]).max(),
    ]
    residuals += [np.abs(G @ A[s] + A[s].T @ G).max() for s in range(3)]
    residuals += [np.abs(W[s] - A[s].T @ G).max() for s in range(3)]
    residual = float(max(residuals))
    if residual > tol.recovery:
        raise NotQuaternionic(
            "restricted two-forms do not define a quaternion triple",
            point=u, residual=residual)

    eigvals = np.linalg.eigvalsh(G)
    if eigvals[0] <= 0.0:
        raise NotPositive("recovered metric is not positive definite",
                          point=u, residual=float(eigvals[0]))

    return Structure(coframe=C, dcoframe=D, hbasis=N, omega=W,
                     imatrices=A, gram=G, residual=residual)


@dataclass
class ReebResult:
    xi: np.ndarray          # (m, 3) columns xi_1, xi_2, xi_3
    residual: float         # max-abs residual of the compatibility system
    min_singular: float     # smallest singular value of the constraint matrix
    cond: float


def reeb_solve(chart, u, structure, tol=DEFAULT_TOLERANCES):
    """Solve for the Reeb fields: xi_s = xi0_s + h_s with eta_t(xi0_s) =
    delta_ts and h_s horizontal, subject to
    d eta_t(xi_s, X) + d eta_s(xi_t, X) = 0 for all s <= t and X in H.

    The system is linear least squares in the 12n horizontal unknowns; its
    residual certifies the compatibility condition at the point.
    """
    u = np.asarray(u, dtype=float)
    C = structure.coframe
    D = structure.dcoframe
    N = structure.hbasis
    fourn = N.shape[1]

    xi0 = np.linalg.pinv(C)  # (m, 3): minimal-norm duals

    # block matrices M_t = N^T D_t^T N and offsets per (s, t) pair
    M = np.einsum("ri,trq,qj->tij", N, np.transpose(D, (0, 2, 1)), N)

    pairs = [(s, t) for s in range(3) for t in range(s, 3)]
    rows = []
    rhs = []
    for (s, t) in pairs:
        block = np.zeros((fourn, 3 * fourn))
        block[:, s * fourn:(s + 1) * fourn] += M[t]
        block[:, t * fourn:(t + 1) * fourn] += M[s]
        rows.append(block)
        rhs.append(-(N.T @ D[t].T @ xi0[:, s] + N.T @ D[s].T @ xi0[:, t]))
    big = np.vstack(rows)
    b = np.concatenate(rhs)

    z, _, _, sv = np.linalg.lstsq(big, b, rcond=None)
    residual = float(np.abs(big @ z - b).max())
    min_sv = float(sv[-1]) if len(sv) else 0.0
    cond = float(sv[0] / sv[-1]) if len(sv) and sv[-1] > 0 else np.inf

    if residual > tol.reeb:
        raise BiquardConditionFail(
            "vertical compatibility system is inconsistent "
            "(not a quaternionic contact coframe)",
            point=u, residual=residual)
    if cond > tol.condition_number:
        raise IllConditioned("Reeb system is ill conditioned", point=u,
                             residual=cond)

    xi = xi0 + N @ z.reshape(3, fourn).T
    return ReebResult(xi=xi, residual=residual, min_singular=min_sv, cond=cond)


@dataclass
class PointFrame:
    """Adapted orthonormal frame at a point: columns of ``eH`` span H, the
    ``xi`` columns are the Reeb fields, ``I`` holds the triple in the eH
    frame, and ``g_coord`` is the full metric as a coordinate bilinear form."""

    point: np.ndarray          # (m,)
    eH: np.ndarray             # (m, 4n)
    xi: np.ndarray             # (m, 3)
    I: QuaternionTriple
    reeb_residual: float
    coframe: np.ndarray        # (3, m)
    dcoframe: np.ndarray       # (3, m, m)
    g_coord: np.ndarray        # (m, m)
    pivot_order: tuple
    structure: Structure = None
    reeb: ReebResult = None

    @property
    def m(self):
        return self.point.shape[0]

    @property
    def fourn(self):
        return self.eH.shape[1]

    def h_components(self, v):
        """Coefficients of the horizontal part of v in the eH frame."""
        return self.eH.T @ self.g_coord @ v

    def v_components(self, v):
        return self.coframe @ v

    def validate(self, tol=DEFAULT_TOLERANCES):
        """Residuals of the frame invariants; raises nothing."""
        C = self.coframe
        D = self.dcoframe
        gram_h = self.eH.T @ self.g_coord @ self.eH
        gram_v = self.xi.T @ self.g_coord @ self.xi
        cross = self.eH.T @ self.g_coord @ self.xi
        compat = max(
            np.abs(self.eH.T @ D[s] @ self.eH - 2.0 * self.I[s].T).max()
            for s in range(3))
        return {
            "eta_on_H": float(np.abs(C @ self.eH).max()),
            "duality": float(np.abs(C @ self.xi - np.eye(3)).max()),
            "gram_H": float(np.abs(gram_h - np.eye(self.fourn)).max()),
            "gram_V": float(np.abs(gram_v - np.eye(3)).max()),
            "gram_cross": float(np.abs(cross).max()),
            "compat": float(compat),
            "quaternion": float(self.I.max_relation_residual()),
            "reeb": float(self.reeb_residual),
        }

    def check(self, tol=DEFAULT_TOLERANCES):
        res = self.validate(tol)
        names = {
            "eta_on_H": tol.frame_annihilation,
            "duality": tol.frame_annihilation,
            "gram_H": tol.frame_gram,
            "gram_V": tol.frame_gram,
            "gram_cross": tol.frame_gram,
            "compat": tol.frame_compat,
            "quaternion": tol.recovery,
            "reeb": tol.reeb,
        }
        bad = {k: v for k, v in res.items() if v > names[k]}
        return res, bad


def frame_field(chart, u, pivot_order=None, tol=DEFAULT_TOLERANCES):
    """Deterministic adapted frame at u.

    Seeds are the coordinate axes projected to H along the vertical space;
    they are Gram-Schmidt orthonormalized under the recovered metric.  The
    pivot order takes seeds by descending metric norm (norms tied within a
    relative 1e-6 keep coordinate order), which makes the construction
    deterministic and smooth in u away from pivot switches.  Passing a
    precomputed ``pivot_order`` freezes the choice, which keeps the frame
    smooth across the small displacements used by finite differencing.
    """
    u = np.asarray(u, dtype=float)
    structure = recover_structure(chart, u, tol)
    reeb = reeb_solve(chart, u, structure, tol)

    m = chart.m
    fourn = 4 * chart.n
    N = structure.hbasis
    G = structure.gram

    # seeds in null-space coordinates: columns of N^T (Id - xi C)
    proj = np.eye(m) - reeb.xi @ structure.coframe
    seeds = N.T @ proj  # (4n, m): column r = coordinates of the r-th seed

    norms = np.sqrt(np.maximum(np.einsum("ir,ij,jr->r", seeds, G, seeds), 0.0))
    if pivot_order is None:
        top = norms.max()
        if top <= 0.0:
            raise DegenerateCoframe("all seed projections vanish", point=u)
        keys = np.round(norms / (top * _PIVOT_TIE))
        pivot_order = tuple(sorted(range(m), key=lambda r: (-keys[r], r)))

    accepted = []
    used = []
    top = norms.max()
    for r in pivot_order:
        if len(accepted) == fourn:
            break
        y = seeds[:, r].copy()
        for q in accepted:
            y -= (q @ G @ y) * q
        nrm = float(y @ G @ y) ** 0.5
        if nrm > _PIVOT_DROP * top:
            accepted.append(y / nrm)
            used.append(r)
    if len(accepted) < fourn:
        raise DegenerateCoframe(
            f"could only build {len(accepted)} of {fourn} frame directions",
            point=u)

    U = np.column_stack(accepted)          # (4n, 4n), columns G-orthonormal
    eH = N @ U                             # (m, 4n)
    Imats = [U.T @ G @ structure.imatrices[s] @ U for s in range(3)]

    g_coord = proj.T @ (N @ G @ N.T) @ proj \
        + structure.coframe.T @ structure.coframe

    return PointFrame(point=u, eH=eH, xi=reeb.xi.copy(),
                      I=QuaternionTriple(*Imats),
                      reeb_residual=reeb.residual,
                      coframe=structure.coframe, dcoframe=structure.dcoframe,
                      g_coord=g_coord, pivot_order=tuple(used),
                      structure=structure, reeb=reeb)


def lie_bracket(chart, x_fn, y_fn, u, h=None):
    """[X, Y] at u for vector fields given as coordinate-component functions,
    with Jacobians by central differences of step h."""
    if h is None:
        h = DEFAULT_STEPS.fd
    u = np.asarray(u, dtype=float)
    m = len(u)
    jx = np.empty((m, m))
    jy = np.empty((m, m))
    for r in range(m):
        step = np.zeros(m)
        step[r] = h
        jx[:, r] = (np.asarray(x_fn(u + step)) - np.asarray(x_fn(u - step))) / (2 * h)
        jy[:, r] = (np.asarray(y_fn(u + step)) - np.asarray(y_fn(u - step))) / (2 * h)
    return jy @ np.asarray(x_fn(u)) - jx @ np.asarray(y_fn(u))


class FrameJet:
    """Frame at a point together with coordinate Jacobians of all frame
    fields and of the triple matrices, from central differences of step
    ``h`` with the frame's pivots frozen.  Everything downstream (brackets,
    vertical derivatives of the triple, structure functions) is algebraic in
    this data."""

    def __init__(self, chart, frame, h=DEFAULT_STEPS.fd,
                 tol=DEFAULT_TOLERANCES):
        self.chart = chart
        self.h = h
        self.frame = frame
        u = frame.point
        m = chart.m
        fourn = self.frame.fourn
        pivots = self.frame.pivot_order

        self.d_eH = np.empty((m, fourn, m))   # d(eH)/du_r in last slot
        self.d_xi = np.empty((m, 3, m))
        self.d_I = np.empty((3, fourn, fourn, m))
        for r in range(m):
            step = np.zeros(m)
            step[r] = h
            fp = frame_field(chart, u + step, pivot_order=pivots, tol=tol)
            fm = frame_field(chart, u - step, pivot_order=pivots, tol=tol)
            self.d_eH[:, :, r] = (fp.eH - fm.eH) / (2 * h)
            self.d_xi[:, :, r] = (fp.xi - fm.xi) / (2 * h)
            for s in range(3):
                self.d_I[s, :, :, r] = (fp.I[s] - fm.I[s]) / (2 * h)

    @property
    def m(self):
        return self.chart.m

    @property
    def fourn(self):
        return self.frame.fourn

    def field_value(self, alpha):
        """Coordinate components of frame field alpha (e_1..e_4n, xi_1..3)."""
        fourn = self.fourn
        if alpha < fourn:
            return self.frame.eH[:, alpha]
        return self.frame.xi[:, alpha - fourn]

    def field_jacobian(self, alpha):
        fourn = self.fourn
        if alpha < fourn:
            return self.d_eH[:, alpha, :]
        return self.d_xi[:, alpha - fourn, :]

    def bracket(self, alpha, beta):
        """[f_alpha, f_beta] at the base point, as a coordinate vector."""
        va = self.field_value(alpha)
        vb = self.field_value(beta)
        return self.field_jacobian(beta) @ va - self.field_jacobian(alpha) @ vb

    def directional_I(self, s, vector):
        """Directional derivative of the frame matrix field of I_s along a
        coordinate vector."""
        return self.d_I[s] @ np.asarray(vector)

    def decompose(self, v):
        """(horizontal coefficients, vertical coefficients) of a coordinate
        vector at the base point."""
        fr = self.frame
        return fr.h_components(v), fr.v_components(v)
